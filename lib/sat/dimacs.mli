(** DIMACS CNF reader / writer.

    Accepts the standard format: optional [c]-comment lines, one
    [p cnf <vars> <clauses>] header, then whitespace-separated non-zero
    integers with [0] terminating each clause.  Clauses may span lines.
    The declared counts are checked loosely: more variables than declared is
    an error, fewer clauses than declared is an error, extra clauses are
    accepted with a warning channel left to the caller.  The formula's
    variables are those its clauses mention ([1..N] for the highest [N]
    used), not the header's count: a declared variable no clause mentions
    is unconstrained and absent from the formula, so a header alone never
    makes the reader allocate. *)

exception Parse_error of string
(** Raised with a human-readable message (includes a line number). *)

val parse_string : string -> Cnf.t

val parse_channel : in_channel -> Cnf.t

val parse_file : string -> Cnf.t
(** @raise Sys_error if the file cannot be opened. *)

val print : Format.formatter -> Cnf.t -> unit
(** Write in DIMACS format, header included. *)

val to_string : Cnf.t -> string

val write_file : string -> Cnf.t -> unit
