module Sink = Sink

type t = {
  on : bool;
  timing : bool;
      (* Hot-path phase timing (clock reads around every BCP / conflict
         analysis).  Separately switchable so a consumer that only wants
         the event stream — the run ledger, the flight recorder — does not
         pay two [Sys.time] calls per propagation. *)
  sink : Sink.t;
  clock : unit -> float;
  epoch : float;
  nest : int ref Domain.DLS.key;
      (* Span nesting depth.  Domain-local: concurrent domains sharing one
         handle (e.g. portfolio racers) each keep their own depth, so a span
         opened on one domain never shifts the [nest] recorded by another. *)
}

let fresh_nest () = Domain.DLS.new_key (fun () -> ref 0)

let disabled =
  {
    on = false;
    timing = false;
    sink = Sink.null;
    clock = (fun () -> 0.0);
    epoch = 0.0;
    nest = fresh_nest ();
  }

let create ?(clock = Sys.time) ?(timing = true) sink =
  { on = true; timing; sink; clock; epoch = clock (); nest = fresh_nest () }

let enabled t = t.on

let timing t = t.timing

let now t = t.clock () -. t.epoch

let flush t = if t.on then t.sink.Sink.flush ()

let event t kind fields =
  if t.on then t.sink.Sink.emit { Sink.ts = now t; kind; fields }

let counter t name value =
  if t.on then
    t.sink.Sink.emit
      { Sink.ts = now t; kind = "counter"; fields = [ ("name", Sink.Str name); ("value", Sink.Int value) ] }

let gauge t name value =
  if t.on then
    t.sink.Sink.emit
      {
        Sink.ts = now t;
        kind = "gauge";
        fields = [ ("name", Sink.Str name); ("value", Sink.Float value) ];
      }

let span_event t name ~dur fields =
  if t.on then
    t.sink.Sink.emit
      {
        Sink.ts = now t;
        kind = "span";
        fields = ("name", Sink.Str name) :: ("dur", Sink.Float dur) :: fields;
      }

let span t name ?(fields = []) f =
  if not t.on then f ()
  else begin
    let nest = Domain.DLS.get t.nest in
    let level = !nest in
    nest := level + 1;
    let t0 = t.clock () in
    let finish () =
      let t1 = t.clock () in
      nest := level;
      t.sink.Sink.emit
        {
          Sink.ts = t0 -. t.epoch;
          kind = "span";
          fields =
            ("name", Sink.Str name)
            :: ("dur", Sink.Float (t1 -. t0))
            :: ("nest", Sink.Int level)
            :: fields;
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end
