module Sink = Telemetry.Sink

(* ------------------------------------------------------------------ *)
(* Rings.

   One ring per domain that ever emits through a given recorder; the
   owning domain is the only writer.  Event [seq] occupies slot
   [seq mod cap] of both arrays; [r_seq] counts completed events and is
   the sole synchronisation point: the writer fills the slot with plain
   stores, then publishes with [Atomic.set] (release).  A snapshotting
   domain reads [r_seq] (acquire) before and after copying — see
   [snapshot_ring] for the torn-slot argument. *)

type ring = {
  r_dom : int;
  r_events : Sink.event array;
  r_t_us : int array;  (* wall-clock microseconds since the recorder's epoch *)
  r_seq : int Atomic.t;  (* events completed; only the owner writes it *)
}

type t = {
  cap : int;
  epoch : float;
  registry : ring list ref;
  reg_mutex : Mutex.t;
  key : ring Domain.DLS.key;
}

let blank = { Sink.ts = 0.0; kind = ""; fields = [] }

let create ?(capacity = 4096) () =
  if capacity < 2 then invalid_arg "Recorder.create: capacity < 2";
  let registry = ref [] in
  let reg_mutex = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let r =
          {
            r_dom = (Domain.self () :> int);
            r_events = Array.make capacity blank;
            r_t_us = Array.make capacity 0;
            r_seq = Atomic.make 0;
          }
        in
        Mutex.protect reg_mutex (fun () -> registry := r :: !registry);
        r)
  in
  { cap = capacity; epoch = Unix.gettimeofday (); registry; reg_mutex; key }

let record t e =
  let r = Domain.DLS.get t.key in
  let s = Atomic.get r.r_seq in
  let i = s mod t.cap in
  r.r_events.(i) <- e;
  r.r_t_us.(i) <- int_of_float ((Unix.gettimeofday () -. t.epoch) *. 1e6);
  Atomic.set r.r_seq (s + 1)

let sink t = { Sink.emit = record t; flush = ignore }

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

(* (t_us, dom, seq, event) of every surviving event of one ring. *)
let snapshot_ring cap r =
  let c1 = Atomic.get r.r_seq in
  let lo = max 0 (c1 - cap) in
  let events = Array.init (c1 - lo) (fun i -> r.r_events.((lo + i) mod cap)) in
  let stamps = Array.init (c1 - lo) (fun i -> r.r_t_us.((lo + i) mod cap)) in
  let c2 = Atomic.get r.r_seq in
  (* The writer may since have started (or finished) events up to [c2];
     writing event [e] dirties the slot that held event [e - cap].  Only
     indices strictly above [c2 - cap] are guaranteed untouched. *)
  let keep = ref [] in
  for i = c1 - lo - 1 downto 0 do
    let seq = lo + i in
    if seq > c2 - cap then keep := (stamps.(i), r.r_dom, seq, events.(i)) :: !keep
  done;
  !keep

let snapshot t =
  let rings = Mutex.protect t.reg_mutex (fun () -> !(t.registry)) in
  List.concat_map (snapshot_ring t.cap) rings
  |> List.sort (fun (t1, d1, s1, _) (t2, d2, s2, _) -> compare (t1, d1, s1) (t2, d2, s2))
  |> List.map (fun (t_us, dom, seq, (e : Sink.event)) ->
         {
           e with
           fields = e.fields @ [ ("dom", Sink.Int dom); ("seq", Sink.Int seq); ("t_us", Sink.Int t_us) ];
         })

(* ------------------------------------------------------------------ *)
(* JSONL dump. *)

let dump t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Jsonl.to_line e);
          output_char oc '\n')
        (snapshot t))

let on_signal t ~signal ~path =
  match Sys.signal signal (Sys.Signal_handle (fun _ -> dump t path)) with
  | _ -> ()
  | exception Invalid_argument _ | (exception Sys_error _) -> ()

let on_sigusr1 t ~path = on_signal t ~signal:Sys.sigusr1 ~path
