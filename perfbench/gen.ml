(* Seeded input generation.

   The program under test only ever sees what this module produces: [.rnl]
   text for the check workloads and JSONL request lines for [serve].  Every
   input is a fixed-size design from {!Circuit.Generators} padded with
   seeded property-irrelevant logic — noise registers and gates mixed with
   the design's primary inputs, the industrial situation the paper targets
   — and with its declaration lines shuffled, so node numbering (and with
   it the solver's variable order) differs per seed.  Design sizes and
   padding sizes are fixed per family, so a seed changes which formula is
   solved but not how big it is: run-to-run spread then reflects the
   program, not a lucky draw of small inputs. *)

module G = Circuit.Generators

type expect =
  | Holds
  | Fails_at of int

type item = {
  label : string;
  text : string;  (** [.rnl] source, the program's only view of the circuit *)
  expect : expect;
  depth : int;  (** the check's depth bound *)
}

let expect_of_case (c : G.case) =
  match c.G.expect with
  | Some G.Holds -> Holds
  | Some (G.Fails_at f) -> Fails_at f
  | None -> invalid_arg ("Gen: case without a known verdict: " ^ c.G.name)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Append [regs] noise registers and [gates] noise gates to the design and
   shuffle every declaration.  The noise reads the design's inputs but
   nothing in the design reads the noise, so the verdict is unchanged. *)
let pad rng (c : G.case) ~regs ~gates =
  let base =
    Circuit.Textio.to_string c.G.netlist ~property:c.G.property
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let inputs =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with [ "input"; n ] -> Some n | _ -> None)
      base
  in
  let pool = ref (Array.of_list inputs) in
  let pick () = !pool.(Random.State.int rng (Array.length !pool)) in
  let noise = ref [] in
  let emit l = noise := l :: !noise in
  let reg_names = List.init regs (Printf.sprintf "pad_r%d") in
  List.iter
    (fun r ->
      let init = match Random.State.int rng 3 with 0 -> "0" | 1 -> "1" | _ -> "x" in
      emit (Printf.sprintf "reg %s init %s" r init))
    reg_names;
  pool := Array.append !pool (Array.of_list reg_names);
  for g = 0 to gates - 1 do
    let name = Printf.sprintf "pad_g%d" g in
    let op = match Random.State.int rng 3 with 0 -> "and" | 1 -> "or" | _ -> "xor" in
    emit (Printf.sprintf "%s %s %s %s" op name (pick ()) (pick ()));
    pool := Array.append !pool [| name |]
  done;
  List.iter
    (fun r ->
      let g = Random.State.int rng (max 1 gates) in
      let src = if gates > 0 then Printf.sprintf "pad_g%d" g else pick () in
      emit (Printf.sprintf "next %s %s" r src))
    reg_names;
  let lines = Array.of_list (base @ List.rev !noise) in
  shuffle rng lines;
  String.concat "\n" (Array.to_list lines) ^ "\n"

type family = {
  f_name : string;
  f_case : unit -> G.case;
  f_depth : int;
}

let fam f_name f_case f_depth = { f_name; f_case; f_depth }

(* Holding properties, one per benchmark family; sizes chosen so one check
   is tens of milliseconds on a 2-core 2.1 GHz x86 machine.  The gray bound
   is kept short: deeper, its checks have a heavy tail across shuffles that
   would dominate the seed-to-seed spread. *)
let prove_families =
  [
    fam "ring" (fun () -> G.ring ~len:8 ()) 12;
    fam "lfsr" (fun () -> G.lfsr ~width:10 ()) 14;
    fam "parity_pipe" (fun () -> G.parity_pipe ~stages:6 ()) 12;
    fam "gray" (fun () -> G.gray ~bits:4 ()) 9;
    fam "arbiter" (fun () -> G.arbiter ~clients:6 ()) 11;
    fam "johnson" (fun () -> G.johnson ~width:8 ()) 10;
    fam "fifo_safe" (fun () -> G.fifo_safe ~bits:3 ()) 14;
    fam "priority_arbiter" (fun () -> G.priority_arbiter ~clients:6 ()) 12;
    fam "elevator" (fun () -> G.elevator ~bits:3 ()) 10;
    fam "traffic" (fun () -> G.traffic ()) 16;
  ]

(* Failing properties: the depth bound leaves room past the failure. *)
let falsify_families =
  [
    fam "counter" (fun () -> G.counter ~bits:5 ~target:12 ()) 16;
    fam "counter_en" (fun () -> G.counter_en ~bits:5 ~target:12 ()) 16;
    fam "shift_in" (fun () -> G.shift_in ~len:12 ()) 16;
    fam "fifo_overflow" (fun () -> G.fifo_overflow ~bits:3 ()) 12;
    fam "watchdog" (fun () -> G.watchdog ~bits:4 ()) 18;
  ]

let rng_for ~seed ~salt = Random.State.make [| seed; salt |]

(* [copies] padded variants of every family, in family-interleaved order. *)
let items ~seed ~salt ~copies ~regs ~gates families =
  let rng = rng_for ~seed ~salt in
  List.concat
    (List.init copies (fun copy ->
         List.map
           (fun f ->
             let c = f.f_case () in
             {
               label = Printf.sprintf "%s.%d" f.f_name copy;
               text = pad rng c ~regs ~gates;
               expect = expect_of_case c;
               depth = f.f_depth;
             })
           families))

(* [scale] shrinks everything for smoke runs: 1.0 is the benchmark. *)
let prove ~seed ~scale =
  let copies = max 1 (int_of_float (Float.round (16.0 *. scale))) in
  let regs = max 2 (int_of_float (16.0 *. scale)) in
  items ~seed ~salt:1 ~copies ~regs ~gates:(3 * regs) prove_families
  |> List.map (fun it -> { it with depth = max 2 (int_of_float (float_of_int it.depth *. scale)) })

let falsify ~seed ~scale =
  let copies = max 1 (int_of_float (Float.round (16.0 *. scale))) in
  let regs = max 2 (int_of_float (16.0 *. scale)) in
  items ~seed ~salt:2 ~copies ~regs ~gates:(3 * regs) falsify_families

(* [prove]'s inputs under the same seed, lighter: half the copies and
   a shallower bound, since inprocessing and core minimisation multiply the
   cost of every depth. *)
let prove_inpr ~seed ~scale =
  let all = prove ~seed ~scale in
  let n = 8 * List.length prove_families in
  List.filteri (fun i _ -> i < n) all
  |> List.map (fun it -> { it with depth = max 2 (it.depth - 5) })

(* ------------------------------------------------------------------ *)
(* The serve mix                                                        *)
(* ------------------------------------------------------------------ *)

let serve_families =
  [
    fam "ring" (fun () -> G.ring ~len:6 ()) 8;
    fam "lfsr" (fun () -> G.lfsr ~width:6 ()) 8;
    fam "parity_pipe" (fun () -> G.parity_pipe ~stages:5 ()) 8;
    fam "johnson" (fun () -> G.johnson ~width:6 ()) 8;
    fam "arbiter" (fun () -> G.arbiter ~clients:4 ()) 8;
    fam "counter" (fun () -> G.counter ~bits:4 ~target:7 ()) 8;
    fam "shift_in" (fun () -> G.shift_in ~len:6 ()) 8;
    fam "fifo_overflow" (fun () -> G.fifo_overflow ~bits:2 ()) 8;
  ]

type request = {
  r_line : string;  (** the JSONL request line *)
  r_circuit : int;  (** index into the mix's circuits *)
  r_depth : int;
}

type mix = {
  circuits : item array;
  requests : request array;
}

(* What the server must answer for a request of [depth] on [item]. *)
let expected_for item ~depth =
  match item.expect with
  | Fails_at f when f <= depth -> Fails_at f
  | Fails_at _ | Holds -> Holds

(* How many circuits back a revisit reaches: far enough that the serve
   workload's 1 MB cache has evicted the circuit in most cases (measured:
   a phase's 32 revisits and other repeats give about 27 re-misses). *)
let revisit_lag = 8

(* Ten requests per circuit, in one block per circuit: the circuit arrives
   cold, is repeated (memo hits), extended twice by two frames (warm
   sessions), and the block revisits the circuit [revisit_lag] blocks back
   (mostly evicted by then: a re-miss).  The remaining slots repeat one of
   the last three circuits, chosen by the seed.  The pattern is fixed, so
   every seed offers the same number of cold, warm, repeated and revisiting
   requests; the seed changes which circuits they name.  Deadlines are a
   safety net only. *)
let serve_mix ~seed ~scale =
  let rng = rng_for ~seed ~salt:3 in
  let per_family = max 1 (int_of_float (Float.round (5.0 *. scale))) in
  let circuits =
    Array.of_list (items ~seed ~salt:4 ~copies:per_family ~regs:6 ~gates:18 serve_families)
  in
  let depth = Array.map (fun it -> it.depth) circuits in
  let block b =
    let recent () =
      let c = b - Random.State.int rng (min 3 (b + 1)) in
      (c, depth.(c))
    in
    let self () = (b, depth.(b)) in
    let extend () =
      depth.(b) <- depth.(b) + 2;
      self ()
    in
    let revisit () = if b >= revisit_lag then (b - revisit_lag, depth.(b - revisit_lag)) else self () in
    (* evaluated in order: each slot sees the depths the previous ones set *)
    List.map (fun slot -> slot ())
      [ self; self; recent; extend; self; revisit; extend; recent; self; recent ]
  in
  let schedule = List.concat (List.init (Array.length circuits) block) in
  let line i c d =
    Serve.Protocol.request_line
      {
        Serve.Protocol.rq_id = Printf.sprintf "q%d" i;
        rq_src = Serve.Protocol.Inline circuits.(c).text;
        rq_depth = d;
        rq_mode = None;
        rq_deadline_ms = Some 30_000.0;
        rq_stats = false;
      }
  in
  let requests =
    Array.of_list (List.mapi (fun i (c, d) -> { r_line = line i c d; r_circuit = c; r_depth = d }) schedule)
  in
  { circuits; requests }
