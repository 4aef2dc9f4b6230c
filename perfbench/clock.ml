(* The benchmark's clock: monotonic, in seconds, with nanosecond
   resolution.  The wall clock ticks in microseconds, too coarse for
   sub-millisecond latencies and set-up times. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
