(** Property batches over the BMC session substrate.

    {!check_batch} schedules one full sequential check per property over
    the {!Pool}'s shared queue (work-stealing across properties); each job
    owns its session on whichever worker picked it up.  Outcomes are
    bit-identical to running the properties sequentially, whatever the
    pool size: parallelism only reorders which property finishes first.

    A BMC run of one property is one decision ordering through
    {!Bmc.Session.check}; the worker pool parallelises across properties
    (here and in the serve layer), not across orderings. *)

module Pool = Pool

val check_batch :
  ?config:Bmc.Session.config ->
  ?policy:Bmc.Session.policy ->
  pool:Pool.t ->
  (string * Circuit.Netlist.t * Circuit.Netlist.node * int) list ->
  (string * Bmc.Session.result) list
(** Check many properties concurrently: one job per
    [(name, netlist, property, max_depth)] item on the pool's shared
    queue, each running the plain sequential {!Bmc.Session.check}
    (policy defaults to [Persistent]) on whichever worker steals it.
    Every item runs under [config] with its own [max_depth] in place of
    the config's.  Results come back in input order, and each is
    bit-identical to a sequential run of the same property.  Each item's
    ["depth"] telemetry events carry its name as a [property] field, so
    its run-ledger rows name it; every item also emits one ["batch_item"]
    span (wall seconds, its [property] field the item's name). *)
