(** The ordering laboratory: a registry of named branching heuristics.

    Decision ordering used to be a closed three-way choice baked into
    {!Sat.Order.mode}; this registry opens it up.  Every entry resolves to
    a {!Bmc.Session.mode} — the four built-in modes under their usual
    names, plus laboratory heuristics built on {!Bmc.Session.Custom} and
    the {!Sat.Solver.hooks} seams:

    - ["standard"] / ["static"] / ["dynamic"] / ["shtrichman"] — the
      built-in modes;
    - ["chb"] — conflict-frequency branching: an exponential
      recency-weighted average of conflict participation per variable,
      added on top of the paper's folded bmc_score rank, with phase bias
      towards the more conflict-active literal.

    CLIs resolve [--order NAME] here, the portfolio builds named-racer
    rosters from it, and the differential test suite enumerates it. *)

type spec
(** A registered heuristic: a name, a one-line description, and a mode
    factory. *)

val name : spec -> string

val doc : spec -> string

val mode : spec -> Bmc.Session.mode
(** Build a fresh mode from the spec.  Laboratory heuristics carry
    mutable hook state, so every call returns an independent value; never
    install one mode on two solvers. *)

val specs : unit -> spec list
(** All registered heuristics, in presentation order (built-ins first). *)

val names : unit -> string list
(** [List.map name (specs ())]. *)

val find : string -> spec option
(** Look a heuristic up by name. *)

val mode_of_name : string -> Bmc.Session.mode option
(** [Option.map mode (find n)] — the one-step resolution CLIs use. *)
