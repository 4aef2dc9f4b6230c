(* bmcserve: the model-checking service.

   A long-lived server over Serve.Server: requests stream in as JSONL —
   over a Unix-domain socket (--socket) or stdin/stdout (the default) —
   are dispatched onto the portfolio pool, and answered from the
   digest-keyed warm-session cache whenever the design has been seen
   before.  SIGTERM/SIGINT drain gracefully: admission stops, in-flight
   requests finish, the per-request ledger and the flight recorder are
   flushed, and the process exits 0.

   --client PATH turns the binary into a JSONL client for scripting and
   smoke tests: stdin lines go to the server, response lines to stdout.

   Exit codes: 0 = clean exit/drain, 1 = client-side failure, 2 = usage or
   I/O error. *)

open Cmdliner

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Small I/O helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

let write_line fd s =
  try write_all fd (s ^ "\n") 0 (String.length s + 1)
  with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) -> ()

let rec restart_on_intr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_intr f

(* Split a read buffer into complete lines, leaving the partial tail. *)
let take_lines buf =
  let s = Buffer.contents buf in
  Buffer.clear buf;
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.add_substring buf s start (String.length s - start);
      List.rev acc
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* The request ledger                                                  *)
(* ------------------------------------------------------------------ *)

let setup_ledger ledger_file =
  match ledger_file with
  | None -> (None, fun () -> ())
  | Some path ->
    let oc =
      try open_out path
      with Sys_error msg ->
        Format.eprintf "bmcserve: cannot open ledger file: %s@." msg;
        exit 2
    in
    ( Some
        (fun j ->
          output_string oc (Obs.Json.to_string j);
          output_char oc '\n';
          flush oc),
      fun () -> close_out_noerr oc )

(* ------------------------------------------------------------------ *)
(* The server front end                                                *)
(* ------------------------------------------------------------------ *)

type frontend = {
  engine : Serve.Server.t;
  wake_r : Unix.file_descr;  (* self-pipe: workers and signal handlers *)
  wake_w : Unix.file_descr;
  stop : bool ref;  (* SIGTERM/SIGINT observed *)
  verbose : bool;
}

let log fe fmt =
  if fe.verbose then Format.eprintf ("bmcserve: " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter fmt

let wake fe = try ignore (Unix.write fe.wake_w (Bytes.make 1 'w') 0 1) with Unix.Unix_error _ -> ()

let drain_wake_pipe fe =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fe.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let install_signals fe =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let handler _ =
    fe.stop := true;
    (* wake a front end blocked in select; safe from a handler *)
    try ignore (Unix.write fe.wake_w (Bytes.make 1 's') 0 1) with Unix.Unix_error _ -> ()
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handler)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let submit_line fe ~respond line =
  let line = String.trim line in
  if line <> "" then
    match Serve.Protocol.request_of_line line with
    | Ok rq -> Serve.Server.submit fe.engine ~respond rq
    | Error msg ->
      (* unparsable lines never reach the engine; answer in place *)
      respond (Serve.Protocol.rejection ~line msg)

let finish fe =
  let st = Serve.Server.stats fe.engine in
  Format.eprintf
    "bmcserve: drained cleanly: %d answered (%d hit / %d warm / %d miss), %d shed, %d \
     errors, %d evicted, %d cached entries@."
    st.Serve.Server.st_answered st.Serve.Server.st_hits st.Serve.Server.st_warm
    st.Serve.Server.st_misses st.Serve.Server.st_shed st.Serve.Server.st_errors
    st.Serve.Server.st_evicted st.Serve.Server.st_entries

(* stdin/stdout front end: requests on stdin, responses on stdout. *)
let serve_stdio fe =
  let stdin_fd = Unix.stdin in
  let inbuf = Buffer.create 4096 in
  let eof = ref false in
  let respond resp = write_line Unix.stdout (Serve.Protocol.response_line resp) in
  let rbuf = Bytes.create 65536 in
  let rec loop () =
    if !(fe.stop) && not (Serve.Server.draining fe.engine) then begin
      log fe "signal received: draining";
      Serve.Server.begin_drain fe.engine
    end;
    if !eof && not (Serve.Server.draining fe.engine) then
      Serve.Server.begin_drain fe.engine;
    Serve.Server.process fe.engine;
    if Serve.Server.draining fe.engine && Serve.Server.pending fe.engine = 0 then ()
    else begin
      let watch = fe.wake_r :: (if !eof || !(fe.stop) then [] else [ stdin_fd ]) in
      let ready, _, _ = restart_on_intr (fun () -> Unix.select watch [] [] (-1.0)) in
      if List.mem fe.wake_r ready then drain_wake_pipe fe;
      if List.mem stdin_fd ready then begin
        match Unix.read stdin_fd rbuf 0 (Bytes.length rbuf) with
        | 0 -> eof := true
        | n ->
          Buffer.add_subbytes inbuf rbuf 0 n;
          List.iter (submit_line fe ~respond) (take_lines inbuf)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end;
      Serve.Server.process fe.engine;
      loop ()
    end
  in
  (* make the wake pipe non-blocking so draining it can't stall the loop *)
  Unix.set_nonblock fe.wake_r;
  loop ()

(* Unix-domain-socket front end. *)
let serve_socket fe path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock fe.wake_r;
  log fe "listening on %s" path;
  let clients : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 16 in
  let rbuf = Bytes.create 65536 in
  let close_client fd =
    Hashtbl.remove clients fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec loop () =
    if !(fe.stop) && not (Serve.Server.draining fe.engine) then begin
      log fe "signal received: draining";
      Serve.Server.begin_drain fe.engine
    end;
    Serve.Server.process fe.engine;
    if Serve.Server.draining fe.engine && Serve.Server.pending fe.engine = 0 then ()
    else begin
      let watch =
        fe.wake_r
        :: (if Serve.Server.draining fe.engine then [] else [ listen_fd ])
        @ Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
      in
      let ready, _, _ = restart_on_intr (fun () -> Unix.select watch [] [] (-1.0)) in
      List.iter
        (fun fd ->
          if fd = fe.wake_r then drain_wake_pipe fe
          else if fd = listen_fd then begin
            match Unix.accept listen_fd with
            | cfd, _ -> Hashtbl.replace clients cfd (Buffer.create 4096)
            | exception Unix.Unix_error _ -> ()
          end
          else
            match Hashtbl.find_opt clients fd with
            | None -> ()
            | Some buf -> (
              match Unix.read fd rbuf 0 (Bytes.length rbuf) with
              | 0 -> close_client fd
              | n ->
                Buffer.add_subbytes buf rbuf 0 n;
                let respond resp =
                  write_line fd (Serve.Protocol.response_line resp)
                in
                List.iter (submit_line fe ~respond) (take_lines buf)
              | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                close_client fd
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        ready;
      Serve.Server.process fe.engine;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    loop

let run_server socket jobs cache_mb max_pending share mode depth_cap max_conflicts trace_file
    ledger_file flight_file verbose =
  (* --mode resolves through the heuristic registry (laboratory heuristics
     included); session-level hook state is built per session, so one
     registry mode is safe across the warm cache. *)
  let* mode =
    match Ordering.mode_of_name mode with
    | Some m -> Ok m
    | None ->
      Error
        (Printf.sprintf "unknown mode %S (available: %s)" mode
           (String.concat "|" (Ordering.names ())))
  in
  (* finished after the drain below, not at exit, so the artefacts follow
     the last solver event *)
  let telemetry, close_telemetry =
    Obs.Run.setup ~tool:"bmcserve" ?trace:trace_file ?flight:flight_file ()
  in
  let ledger, close_ledger = setup_ledger ledger_file in
  let wake_r, wake_w = Unix.pipe () in
  let stop = ref false in
  let cfg =
    Serve.Server.make_config ~jobs ~cache_bytes:(cache_mb * 1024 * 1024) ~max_pending
      ~share ~mode ~depth_cap ?max_conflicts ~telemetry ?ledger ()
  in
  let fe = ref None in
  let engine =
    Serve.Server.create
      ~on_wake:(fun () -> Option.iter wake !fe)
      cfg
  in
  let frontend = { engine; wake_r; wake_w; stop; verbose } in
  fe := Some frontend;
  install_signals frontend;
  (match socket with
  | Some path -> serve_socket frontend path
  | None -> serve_stdio frontend);
  (* quiesced: flush every observability stream before the pool dies *)
  Serve.Server.shutdown engine;
  close_ledger ();
  close_telemetry ();
  finish frontend;
  Ok ()

(* ------------------------------------------------------------------ *)
(* The JSONL client                                                    *)
(* ------------------------------------------------------------------ *)

let run_client path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (err, _, _) ->
     Format.eprintf "bmcserve: cannot connect to %s: %s@." path (Unix.error_message err);
     exit 1);
  let requests = ref 0 in
  (try
     while true do
       let line = String.trim (input_line stdin) in
       if line <> "" then begin
         write_line fd line;
         incr requests
       end
     done
   with End_of_file -> ());
  let ic = Unix.in_channel_of_descr fd in
  let failures = ref 0 in
  (try
     for _ = 1 to !requests do
       let line = input_line ic in
       print_endline line;
       match Obs.Json.of_string line with
       | Ok j when Obs.Json.get_str ~default:"" j "status" <> "" -> ()
       | Ok _ | Error _ -> incr failures
     done
   with End_of_file ->
     Format.eprintf "bmcserve: server closed the connection early@.";
     incr failures);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve on a Unix-domain socket at $(docv) instead of stdin/stdout.")

let client =
  Arg.(
    value
    & opt (some string) None
    & info [ "client" ] ~docv:"PATH"
        ~doc:
          "Run as a JSONL client against the server at $(docv): stdin lines are sent as \
           requests, responses print to stdout.")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains in the pool.")

let cache_mb =
  Arg.(
    value
    & opt int 64
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:"Warm-session cache budget: resident clause-arena megabytes before LRU eviction.")

let max_pending =
  Arg.(
    value
    & opt int 64
    & info [ "max-pending" ] ~docv:"N"
        ~doc:"Admission bound: requests beyond $(docv) in flight are shed.")

let share =
  Arg.(
    value & flag
    & info [ "share" ]
        ~doc:"Exchange learnt clauses between cached sessions of structurally identical circuits.")

let mode =
  Arg.(
    value
    & opt string "dynamic"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Default decision ordering, any name in the heuristic registry (standard, \
           static, dynamic, shtrichman, chb).")

let depth_cap =
  Arg.(
    value
    & opt int 64
    & info [ "depth-cap" ] ~docv:"K" ~doc:"Reject requests with a depth budget beyond $(docv).")

let max_conflicts =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N" ~doc:"Per-instance conflict budget.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write JSONL telemetry to $(docv).")

let ledger_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Write the per-request serve ledger (JSONL) to $(docv); analyse with bmcprof serve.")

let flight_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:
          "Keep the last telemetry events of every domain in a bounded ring; dumped to \
           $(docv) as a JSONL trace on SIGUSR1 and at drain time.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log server events to stderr.")

let main socket client jobs cache_mb max_pending share mode depth_cap max_conflicts trace_file
    ledger_file flight_file verbose =
  match client with
  | Some path -> run_client path
  | None -> (
    match
      run_server socket jobs cache_mb max_pending share mode depth_cap max_conflicts trace_file
        ledger_file flight_file verbose
    with
    | Ok () -> ()
    | Error msg ->
      Format.eprintf "bmcserve: %s@." msg;
      exit 2)

let cmd =
  let doc = "long-lived BMC service with a warm-session cache" in
  Cmd.v (Cmd.info "bmcserve" ~doc)
    Term.(
      const main $ socket $ client $ jobs $ cache_mb $ max_pending $ share $ mode $ depth_cap
      $ max_conflicts $ trace_file $ ledger_file $ flight_file $ verbose)

let () = exit (Cmd.eval cmd)
