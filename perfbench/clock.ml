(* The benchmark's only clock: CLOCK_MONOTONIC in nanoseconds, read through
   bechamel's allocation-free stub. It never steps with NTP adjustments, so
   differences are always durations. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9
let since_s t0 = seconds_of_ns (now_ns () - t0)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)
