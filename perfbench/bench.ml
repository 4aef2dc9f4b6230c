(* The benchmark command:

     bench --workload prove|falsify|prove-inpr|serve --seed N --seconds S --trace 0|1

   Inputs are generated from the seed before anything is timed.  With
   [--trace 0] the run measures the end-to-end metrics; with [--trace 1]
   it records spans around every library call and reports the per-layer
   metrics.  The last line of standard output is the JSON result; the exit
   code is non-zero when any verdict was wrong. *)

open Perfbench

let usage = "bench --workload prove|falsify|prove-inpr|serve --seed N --seconds S --trace 0|1"

let write_spans ~workload ~seed spans =
  let dir = Filename.concat "perfbench" "out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
  let oc = open_out path in
  Tracer.to_jsonl oc spans;
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " prove | falsify | prove-inpr | serve");
      ("--seed", Arg.Set_int seed, " input generator seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let spans_out = write_spans ~workload:!workload ~seed in
  let result =
    match !workload with
    | "prove" -> Checks.run Checks.Prove ~seed ~seconds ~scale:1.0 ~traced ~spans_out ()
    | "falsify" -> Checks.run Checks.Falsify ~seed ~seconds ~scale:1.0 ~traced ~spans_out ()
    | "prove-inpr" -> Checks.run Checks.Prove_inpr ~seed ~seconds ~scale:1.0 ~traced ~spans_out ()
    | "serve" -> Serve_load.run ~seed ~seconds ~scale:1.0 ~traced ~spans_out ()
    | w ->
      prerr_endline ("bench: unknown workload " ^ w ^ "\nusage: " ^ usage);
      exit 2
  in
  Report.print stdout result;
  if result.Report.wrong <> [] then exit 1
