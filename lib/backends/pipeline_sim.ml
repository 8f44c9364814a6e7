module Rng = Homunculus_util.Rng
module Stats = Homunculus_util.Stats

type config = {
  ii_cycles : int;
  pipeline_cycles : int;
  clock_ghz : float;
  queue_capacity : int;
}

let config_of_mapping (grid : Taurus.grid) (m : Taurus.mapping) =
  {
    ii_cycles = m.Taurus.ii;
    pipeline_cycles = m.Taurus.pipeline_cycles + grid.Taurus.overhead_cycles;
    clock_ghz = grid.Taurus.clock_ghz;
    queue_capacity = 64;
  }

type stats = {
  packets_offered : int;
  packets_delivered : int;
  packets_dropped : int;
  mean_latency_ns : float;
  p99_latency_ns : float;
  max_queue_depth : int;
  achieved_gpps : float;
}

let simulate config ~arrivals_ns =
  let n = Array.length arrivals_ns in
  if n = 0 then invalid_arg "Pipeline_sim.simulate: no arrivals";
  for i = 1 to n - 1 do
    if arrivals_ns.(i) < arrivals_ns.(i - 1) then
      invalid_arg "Pipeline_sim.simulate: arrivals must be ascending"
  done;
  let cycle_ns = 1. /. config.clock_ghz in
  let ii_ns = float_of_int config.ii_cycles *. cycle_ns in
  let depth_ns = float_of_int config.pipeline_cycles *. cycle_ns in
  (* The ingress accepts one packet per II; a packet arriving while
     [queue_capacity] others wait is dropped. Because service is FIFO with a
     deterministic rate, the queue depth at arrival i is the number of
     earlier accepted packets not yet ingested. *)
  let next_free = ref arrivals_ns.(0) in
  let ingest_times = Queue.create () in
  let latencies = ref [] in
  let delivered = ref 0 and dropped = ref 0 in
  let max_depth = ref 0 in
  let last_departure = ref arrivals_ns.(0) in
  Array.iter
    (fun arrival ->
      (* Retire queued packets whose ingest time has passed. *)
      while
        (not (Queue.is_empty ingest_times)) && Queue.peek ingest_times <= arrival
      do
        ignore (Queue.pop ingest_times)
      done;
      let depth = Queue.length ingest_times in
      if depth > !max_depth then max_depth := depth;
      if depth >= config.queue_capacity then incr dropped
      else begin
        let ingest = Stdlib.max arrival !next_free in
        next_free := ingest +. ii_ns;
        Queue.push ingest ingest_times;
        let departure = ingest +. depth_ns in
        if departure > !last_departure then last_departure := departure;
        latencies := (departure -. arrival) :: !latencies;
        incr delivered
      end)
    arrivals_ns;
  let lat = Array.of_list !latencies in
  let busy_ns = !last_departure -. arrivals_ns.(0) in
  {
    packets_offered = n;
    packets_delivered = !delivered;
    packets_dropped = !dropped;
    mean_latency_ns = (if !delivered = 0 then 0. else Stats.mean lat);
    p99_latency_ns = (if !delivered = 0 then 0. else Stats.nearest_rank lat 99.);
    max_queue_depth = !max_depth;
    achieved_gpps =
      (if busy_ns <= 0. then 0. else float_of_int !delivered /. busy_ns);
  }

let poisson_arrivals rng ~rate_gpps ~n =
  if rate_gpps <= 0. then invalid_arg "Pipeline_sim.poisson_arrivals: rate <= 0";
  if n <= 0 then invalid_arg "Pipeline_sim.poisson_arrivals: n <= 0";
  let t = ref 0. in
  Array.init n (fun i ->
      if i > 0 then t := !t +. Rng.exponential rng rate_gpps;
      !t)

let uniform_arrivals ~rate_gpps ~n =
  if rate_gpps <= 0. then invalid_arg "Pipeline_sim.uniform_arrivals: rate <= 0";
  if n <= 0 then invalid_arg "Pipeline_sim.uniform_arrivals: n <= 0";
  let gap = 1. /. rate_gpps in
  Array.init n (fun i -> float_of_int i *. gap)
