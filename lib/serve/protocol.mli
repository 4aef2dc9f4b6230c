(** The JSONL request/response protocol of the model-checking service.

    One request or response per line, encoded with the dependency-free
    {!Obs.Json} codec.  A request names a circuit (a built-in generator
    case or an inline [.rnl] text), a depth budget and an optional
    wall-clock deadline; a response carries the verdict, the
    counterexample trace when falsified, cache provenance (was the answer
    memoised, resumed on a warm session, or solved cold) and latency
    accounting.  The same line schema doubles as the server's per-request
    ledger, which [bmcprof serve] aggregates.

    {2 Request lines}

    {v
    {"id":"r1","builtin":"ring12","depth":12}
    {"id":"r2","circuit":"input a\n...","depth":5,"mode":"chb",
     "deadline_ms":500,"stats":true}
    v}

    {2 Response lines}

    {v
    {"id":"r1","status":"ok","verdict":"bounded_pass","depth":12,
     "cache":"miss","solved":13,"decisions":...,"conflicts":...,
     "queue_ms":0.1,"wall_ms":12.3}
    {"id":"r3","status":"ok","verdict":"falsified","depth":4,
     "trace":{...},"cache":"hit","solved":0,...}
    {"id":"r9","status":"shed","queue_ms":0.0,"wall_ms":0.0}
    {"id":"bad","status":"error","error":"request needs a \"depth\"",...}
    v} *)

type circuit_src =
  | Builtin of string
      (** a {!Circuit.Generators} suite case, by name (["ring12"], ...) *)
  | Inline of string
      (** [.rnl] text ({!Circuit.Textio}); the property is its [prop]
          line *)

type request = {
  rq_id : string;  (** echoed verbatim in the response *)
  rq_src : circuit_src;
  rq_depth : int;  (** depth budget: check k = 0..depth *)
  rq_mode : Bmc.Session.mode option;
      (** the ordering, named on the wire by any [Ordering] registry name;
          [None]: the server default *)
  rq_deadline_ms : float option;
      (** wall-clock budget for this request, enforced through the
          session's {!Sat.Solver.budget} stop hook *)
  rq_stats : bool;  (** include the final-depth unsat core in the answer *)
}

(** Where the answer came from. *)
type cache_class =
  | Hit  (** memoised: answered without touching a solver *)
  | Warm  (** resumed on a cached warm session (deeper depths only) *)
  | Miss  (** solved cold on a session built for this request *)

val cache_class_string : cache_class -> string

type verdict_summary =
  | Falsified of int * Obs.Json.t
      (** counterexample depth and the replayed trace ({!trace_to_json}) *)
  | Bounded_pass of int  (** every depth up to this bound is UNSAT *)
  | Aborted of int  (** budget / deadline exhausted at this depth *)

type body = {
  rs_verdict : verdict_summary;
  rs_cache : cache_class;
  rs_solved : int;  (** instances actually solved for this request *)
  rs_decisions : int;
  rs_conflicts : int;
  rs_core : Sat.Lit.var list;
      (** final-depth unsat-core variables; populated only when the
          request set [stats] and the answer's final depth was UNSAT with
          a core on hand *)
}

type reply =
  | Answer of body
  | Shed  (** admission control: the pending queue was full *)
  | Draining  (** the server is shutting down and refused admission *)
  | Bad_request of string  (** unparsable circuit, unknown builtin, ... *)

type response = {
  rs_id : string;
  rs_reply : reply;
  rs_queue_ms : float;  (** arrival to dispatch *)
  rs_wall_ms : float;  (** arrival to answer *)
}

(** {1 Codec} *)

val request_of_json : Obs.Json.t -> (request, string) result

val request_of_line : string -> (request, string) result

val request_to_json : request -> Obs.Json.t

val request_line : request -> string
(** One JSONL line, newline not included. *)

val rejection : line:string -> string -> response
(** The answer to a [line] that {!request_of_line} refused with the given
    message: a [Bad_request] echoing the line's string ["id"] when the
    line is a JSON object carrying one, so a pipelined client can match
    the error to its request; [""] otherwise (unparsable JSON). *)

val trace_to_json : Circuit.Netlist.t -> Bmc.Trace.t -> Obs.Json.t
(** [{"depth":d,"init":[["r0",false],...],"frames":[[["a",true],...],...]}]
    — nodes print by canonical name, or ["#<id>"] when unnamed.  The
    encoding is deterministic, so warm-vs-cold equivalence tests compare
    serialized traces directly. *)

val response_to_json : response -> Obs.Json.t

val response_line : response -> string

val response_of_json : Obs.Json.t -> (response, string) result
(** Used by the JSONL client and the tests; the trace comes back as the
    raw {!Obs.Json.t} it was sent as. *)

val ledger_line : digest:string -> t_ms:float -> request -> response -> Obs.Json.t
(** The server's per-request ledger record: the response fields plus the
    structural digest the request resolved to ([""] when it never did) and
    the server-relative completion time [t_ms]. *)
