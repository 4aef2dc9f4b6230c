(* One mutex/condition pair guards both the shared queue and the per-worker
   pinned queues.  That single lock is deliberate: jobs here are SAT solves
   (milliseconds to seconds), so queue contention is noise, and one lock
   makes the blocking protocol — workers wait for "my pinned queue, the
   shared queue, or shutdown" — trivially deadlock-free. *)

type job = {
  run : unit -> unit; (* never raises; the future captures the exception *)
  label : string;
  enqueued : float; (* wall clock at submission, for the queue_wait span *)
}

type t = {
  m : Mutex.t;
  cv : Condition.t;
  shared : job Queue.t;
  pinned : job Queue.t array; (* one per worker *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array; (* empty after shutdown *)
  tel : Telemetry.t;
}

let size t = Array.length t.pinned

(* ------------------------------------------------------------------ *)
(* Futures.                                                            *)
(* ------------------------------------------------------------------ *)

type 'a future = {
  fm : Mutex.t;
  fcv : Condition.t;
  mutable settled : ('a, exn) result option;
}

let settle fut r =
  Mutex.protect fut.fm (fun () ->
      fut.settled <- Some r;
      Condition.broadcast fut.fcv)

let await fut =
  Mutex.lock fut.fm;
  while fut.settled = None do
    Condition.wait fut.fcv fut.fm
  done;
  let r = fut.settled in
  Mutex.unlock fut.fm;
  match r with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Workers.                                                            *)
(* ------------------------------------------------------------------ *)

let emit_queue_wait t ~worker ~label ~enqueued =
  if Telemetry.enabled t.tel then
    Telemetry.span_event t.tel "queue_wait" ~dur:(Telemetry.wall () -. enqueued)
      [ ("worker", Telemetry.Sink.Int worker); ("job", Telemetry.Sink.Str label) ]

let worker_loop t i () =
  let rec next () =
    Mutex.lock t.m;
    let rec wait () =
      if not (Queue.is_empty t.pinned.(i)) then Some (Queue.pop t.pinned.(i))
      else if not (Queue.is_empty t.shared) then Some (Queue.pop t.shared)
      else if t.stopping then None
      else begin
        Condition.wait t.cv t.m;
        wait ()
      end
    in
    let job = wait () in
    Mutex.unlock t.m;
    match job with
    | None -> ()
    | Some job ->
      emit_queue_wait t ~worker:i ~label:job.label ~enqueued:job.enqueued;
      job.run ();
      next ()
  in
  next ()

let create ?(telemetry = Telemetry.disabled) ~jobs () =
  let n = max 1 jobs in
  let t =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      shared = Queue.create ();
      pinned = Array.init n (fun _ -> Queue.create ());
      stopping = false;
      workers = [||];
      tel = telemetry;
    }
  in
  t.workers <- Array.init n (fun i -> Domain.spawn (worker_loop t i));
  t

let submit ?affinity ?(label = "job") t f =
  let fut = { fm = Mutex.create (); fcv = Condition.create (); settled = None } in
  let run () =
    let r = try Ok (f ()) with e -> Error e in
    settle fut r
  in
  let job = { run; label; enqueued = Telemetry.wall () } in
  Mutex.protect t.m (fun () ->
      if t.stopping then invalid_arg "Pool.submit: pool has been shut down";
      (match affinity with
      | Some i -> Queue.push job t.pinned.(((i mod size t) + size t) mod size t)
      | None -> Queue.push job t.shared);
      (* broadcast, not signal: a pinned job must wake its own worker even
         if another worker got the signal first *)
      Condition.broadcast t.cv);
  fut

let map_list ?label t f xs =
  let futs = List.map (fun x -> submit ?label t (fun () -> f x)) xs in
  (* settle everything before re-raising, so no job outlives the call *)
  let rs =
    List.map (fun fut -> try Ok (await fut) with e -> Error e) futs
  in
  List.map (function Ok v -> v | Error e -> raise e) rs

(* ------------------------------------------------------------------ *)
(* Shutdown.                                                           *)
(* ------------------------------------------------------------------ *)

let shutdown t =
  let workers =
    Mutex.protect t.m (fun () ->
        let w = t.workers in
        t.workers <- [||];
        t.stopping <- true;
        Condition.broadcast t.cv;
        w)
  in
  Array.iter Domain.join workers

let with_pool ?telemetry ~jobs f =
  let t = create ?telemetry ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
