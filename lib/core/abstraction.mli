(** Proof-based abstraction on top of the unsatisfiable cores.

    The paper's Figure 3 observes that an unsatisfiable core "implicitly
    defines an abstraction of the model": the registers whose clauses appear
    in the core are the ones the length-k refutation actually needed.  This
    module turns that observation into an {e unbounded} proof procedure
    (McMillan–Amla-style proof-based abstraction):

    + run the depth-k BMC instance; if SAT, a real counterexample;
    + if UNSAT, read the registers mentioned by the core off the CDG and
      build the {e localisation abstraction} that keeps exactly those
      registers ({!Circuit.Netlist.abstract_registers});
    + model check the abstraction exhaustively (it is usually tiny — that
      is the point).  If the property holds on the abstraction, it holds on
      the concrete circuit, at {e every} depth;
    + otherwise the abstract counterexample's length says how much deeper
      BMC must look: increase k and repeat.

    The BMC phase runs on one {!Session} under the [Fresh] policy and the
    configured decision-ordering mode, so the refinement of the paper
    accelerates the very loop its Figure 3 foreshadows. *)

type verdict =
  | Proved of { depth : int; kept_regs : int; total_regs : int }
      (** property invariant; proved from the depth-[depth] core keeping
          [kept_regs] of [total_regs] registers *)
  | Falsified of Trace.t
  | Unknown of int  (** undecided up to this depth *)

type round = {
  depth : int;
  core_regs : int;  (** registers named by this depth's core *)
  abstract_verdict : Circuit.Reach.verdict option;
      (** result of checking the abstraction; [None] if skipped *)
  time : float;
}

type result = {
  verdict : verdict;
  rounds : round list;
  total_time : float;
}

val prove :
  ?config:Session.config ->
  ?max_abstract_regs:int ->
  Circuit.Netlist.t ->
  property:Circuit.Netlist.node ->
  result
(** [prove netlist ~property] runs the abstraction loop.  [config.max_depth]
    bounds the BMC depth; [config.collect_cores] and [config.core_mode] are
    overridden ([true], [Core_fast]) so every round reads the raw proof
    core.  [max_abstract_regs] (default 22) bounds the
    abstractions handed to the explicit-state checker — larger abstractions
    skip the check and deepen instead.
    @raise Invalid_argument if the netlist does not validate. *)

val prove_case :
  ?config:Session.config -> ?max_abstract_regs:int -> Circuit.Generators.case -> result

val pp_verdict : Format.formatter -> verdict -> unit
