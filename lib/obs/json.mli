(** The repository's one JSON codec.  Every JSON artefact is printed and
    parsed here: the telemetry trace ({!Jsonl}), the run ledger, the
    flight-recorder dump, the serve protocol, and the bench's
    [bench_results.json] and [BENCH_quick.json] snapshot.

    [to_string] preserves field order and prints floats in their shortest
    round-tripping form, so printing is deterministic and
    [of_string |> to_string] is the identity on anything this module
    printed — the ledger round-trip test relies on that. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with 2-space
    indentation (same token stream, different whitespace). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Numbers without a fraction or
    exponent become [Int], others [Float]. *)

(** {1 Accessors}

    [member]/[to_*] are total lookups; the [get_*] forms bundle a lookup
    with a coercion and a default for the common "read a field of an
    object" case. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish). *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
val get_int : ?default:int -> t -> string -> int
val get_float : ?default:float -> t -> string -> float
val get_str : ?default:string -> t -> string -> string
val get_bool : ?default:bool -> t -> string -> bool
val get_list : t -> string -> t list
(** [[]] when absent or not a list. *)
