module Pool = Pool
module Session = Bmc.Session

(* An item's "depth" events carry its name as a [property] field, so a
   batch ledger's rows say which property they belong to, whatever order
   the items finish in. *)
let tag_depths name (sink : Telemetry.Sink.t) =
  {
    sink with
    Telemetry.Sink.emit =
      (fun e ->
        sink.emit
          (if e.Telemetry.Sink.kind = "depth" then
             { e with fields = ("property", Telemetry.Sink.Str name) :: e.fields }
           else e));
  }

let check_batch ?(config = Session.default_config) ?(policy = Session.Persistent) ~pool items =
  let tel = config.Session.telemetry in
  Pool.map_list ~label:"batch" pool
    (fun (name, netlist, property, max_depth) ->
      let t0 = Telemetry.wall () in
      let telemetry = Telemetry.map_sink tel (tag_depths name) in
      let r =
        Session.check ~config:{ config with Session.max_depth; telemetry } ~policy netlist
          ~property
      in
      if Telemetry.enabled tel then
        Telemetry.span_event tel "batch_item" ~dur:(Telemetry.wall () -. t0)
          [ ("property", Telemetry.Sink.Str name) ];
      (name, r))
    items
