(** Prometheus textfile export for the future service layer.

    Renders a {!Ledger.t} in the node-exporter textfile-collector format:
    drop the output in a [*.prom] file under the collector's directory and
    every metric below appears with a [bmc_] prefix — depth outcomes,
    decision-source split, restarts, fallback switches, core churn and
    phase seconds. *)

val render : Ledger.t -> string
(** The full textfile document ([# HELP] / [# TYPE] / sample lines). *)

val write : Ledger.t -> string -> unit
(** [write t path] renders to [path] (truncating). *)
