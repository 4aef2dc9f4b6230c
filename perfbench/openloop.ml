(* The open-loop accounting, kept free of I/O so it can be tested on
   synthetic timestamps.

   Independent users send requests on a schedule whatever the server is
   doing, so each request is timed from when it was {e due}: a stall then
   counts against every request queued behind it, not just the one that
   hit it.  The generator's own lateness (sent minus due) is reported
   alongside, to show the schedule was actually kept. *)

type sample = {
  due : float;
  sent : float;
  answered : float;
}

let latency_ms s = (s.answered -. s.due) *. 1000.0

let lateness_ms s = (s.sent -. s.due) *. 1000.0

(* Evenly spaced due times at [rate] requests per second. *)
let due_times ~start ~rate n = Array.init n (fun i -> start +. (float_of_int i /. rate))

(* Time from the last due time to the last answer.  A server that keeps up
   answers the last request about one service time after it was due; one
   that has built a backlog needs the whole backlog to drain. *)
let drain_ms samples =
  let last f = Array.fold_left (fun acc s -> Float.max acc (f s)) neg_infinity samples in
  (last (fun s -> s.answered) -. last (fun s -> s.due)) *. 1000.0

(* Answers per second over the rung, first due time to last answer. *)
let throughput samples =
  let n = Array.length samples in
  if n = 0 then 0.0
  else
    let first = Array.fold_left (fun acc s -> Float.min acc s.due) infinity samples in
    let last = Array.fold_left (fun acc s -> Float.max acc s.answered) neg_infinity samples in
    float_of_int n /. Float.max 1e-9 (last -. first)

let p95_ms samples = Stats.percentile (Array.to_list (Array.map latency_ms samples)) 95.0

(* A rung is sustained when its p95 latency meets the limit and the backlog
   left at the end of the schedule drains within the limit too. *)
let sustained ~limit_ms samples =
  Array.length samples > 0 && p95_ms samples <= limit_ms && drain_ms samples <= limit_ms

(* The ladder rule: climb the rungs in ascending rate order and stop at the
   first one that is not sustained.  Returns the highest sustained rung's
   offered rate with its measured throughput, or [None] when even the
   lowest rung fails. *)
let max_rps ~limit_ms rungs =
  let rec climb best = function
    | [] -> best
    | (rate, samples) :: rest ->
      if sustained ~limit_ms samples then climb (Some (rate, throughput samples)) rest else best
  in
  climb None (List.sort (fun (a, _) (b, _) -> Float.compare a b) rungs)
