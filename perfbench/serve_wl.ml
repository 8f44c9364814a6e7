(* The serve path: Engine.step -> Runtime / Monitor -> Updater / Autopilot
   -> Journal.

   A pass drives one fresh engine through the whole trace, timing every
   Engine.step call, then Engine.finish. The trace is open loop: arrival
   times are fixed by the load generator before the pass, whatever the
   engine does. In wall time the engine runs as fast as it can, so the pass
   time measures the host's drain capacity; the virtual-time queueing model
   is deterministic and is checked, not timed. *)

module Rng = Homunculus_util.Rng
module Flowsim = Homunculus_netdata.Flowsim
module Botnet = Homunculus_netdata.Botnet
module Runtime = Homunculus_backends.Runtime
module Platform = Homunculus_alchemy.Platform
module Journal = Homunculus_resilience.Journal
module Serve_eval = Homunculus_check.Serve_eval
module Autopilot = Homunculus_autopilot.Autopilot
open Homunculus_serve

type kind = Steady | Shift

let service_rate = Engine.default_config.Engine.service_rate_pps
let offered_rate = 0.5 *. service_rate
let bootstrap_flows = 300
let mix n = { Flowsim.n_flows = n; botnet_frac = 0.5; max_packets = 200 }

(* The second phase of serve_shift gets flow ids from here on, so the
   first of its packets marks the shift in the retimed trace. *)
let phase_b_from = 1_000_000

(* serve_steady serves exactly this many packets, whatever the seed, so
   every seed asks the drain for the same work. *)
let steady_packets = 200_000

(* serve_shift answers at most this many alarms per pass with a re-search;
   later alarms keep the incumbent. Every seed raises more alarms than
   this, so every pass runs the same number of generations — and a
   re-search's cost grows with the generations it replays. *)
let max_searches = 8

type scenario = {
  model : Homunculus_backends.Model_ir.t;
  events : Stream.event array;
  shift_ts : float;  (** arrival of the first shifted packet; infinity if none *)
}

(* The deployed model is part of the workload: both serve workloads
   bootstrap it from the same fixed flows, and their updater and autopilot
   seeds are fixed too. serve_steady draws its traffic and arrival schedule
   from the benchmark seed. serve_shift's inputs are all fixed, like its
   re-search cap: when the seed drew its flows, or only its arrival
   schedule, the alarms fell elsewhere, the re-searches retrained on other
   traffic, and the pass time moved by up to 40% between seeds. *)
let workload_seed = 17

(* Same seed, same scenario: bootstrap flows and model from the workload
   seed; then traffic, trace, and arrival schedule. *)
let setup kind ~seed =
  let seed = match kind with Steady -> seed | Shift -> workload_seed + 1 in
  let fixed = Rng.create workload_seed in
  let rng = Rng.create seed in
  let (boot, flows), data_s =
    Clock.time (fun () ->
        let boot = Flowsim.generate fixed ~mix:(mix bootstrap_flows) () in
        match kind with
        | Steady -> (boot, [| Flowsim.generate rng ~mix:(mix 2000) () |])
        | Shift ->
            let a = Flowsim.generate rng ~mix:(mix 1000) () in
            let b =
              Stream.renumber ~from:phase_b_from
                (Stream.shift_botnet (Flowsim.generate rng ~mix:(mix 1000) ()))
            in
            (boot, [| a; b |]))
  in
  let model, bootstrap_s =
    Clock.time (fun () ->
        Updater.bootstrap (Rng.split fixed) ~algorithm:`Svm ~bins:Botnet.Fused
          ~name:"botnet_detection" boot)
  in
  let events, trace_s =
    Clock.time (fun () ->
        let base =
          match flows with
          | [| serve |] -> Stream.events (Rng.split rng) serve
          | phases ->
              (* phase k starts its flows in [600 k, 600 (k + 1)) *)
              Array.concat
                (Array.to_list
                   (Array.mapi
                      (fun k fs ->
                        Array.map
                          (fun f -> ((600. *. float_of_int k) +. Rng.float rng 600., f))
                          fs)
                      phases))
              |> Stream.events_scheduled
        in
        let base =
          match kind with
          | Shift -> base
          | Steady ->
              if Array.length base < steady_packets then
                failwith "serve_steady: trace shorter than its packet count";
              Array.sub base 0 steady_packets
        in
        let gen =
          Loadgen.generator
            (Rng.create (Hashtbl.hash ("arrivals", seed)))
            ~rate:offered_rate ~process:Loadgen.Poisson
        in
        Loadgen.retime gen base)
  in
  let shift_ts =
    match Array.find_opt (fun e -> e.Stream.flow_id >= phase_b_from) events with
    | Some e -> e.Stream.ts
    | None -> Float.infinity
  in
  ({ model; events; shift_ts }, (data_s, trace_s, bootstrap_s))

let monitor_config = function
  | Steady -> Monitor.default_config
  | Shift -> { Monitor.default_config with Monitor.cooldown_windows = 2 }

(* Step percentiles sort 200k samples per pass; a handful of passes gives
   their median without spending most of a run sorting. *)
let percentile_passes = 6

let sp_step = Span.name "engine.step"
let sp_finish = Span.name "engine.finish"
let sp_research = Span.name "autopilot.research"
let sp_classify = Span.name "runtime.classify_into"
let sp_load = Span.name "runtime.load"
let sp_monitor = Span.name "monitor.observe_advance"
let sp_record = Span.name "updater.record"
let sp_journal = Span.name "journal.load"

type pass = {
  wall_s : float;
  served : int;
  offered : int;
  dropped : int;
  swaps : int;
  windows : int;
  drifts : int;
  steps : (float * float * (float * float)) option;
      (** per-step p50, p99, and the highest percentile with >= 10 samples
          beyond it, in us; taken on the first [percentile_passes] passes *)
  minor_words : float;
  major_collections : int;
  research_s : float list;  (** hook calls that ran a search *)
  research_busy_s : float;  (** every hook call *)
  pilot : Autopilot.event list;
  quality : float;
  recovery_s : float option;
  verdicts : string;  (** digest of every traced verdict *)
  exact : bool;  (** conservation, exact quantized replay, drop-free swaps *)
  recovered : bool;  (** serve_shift: at least one install and a recovery *)
  traced : bool;
}

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Mean windowed F1 before the shift, mean after it, and the time from the
   shift to the first window after the first post-shift swap whose F1 is
   within 0.05 of the pre-shift mean. *)
let shift_figures ~shift_ts (s : Engine.summary) =
  let f1s keep =
    List.filter_map
      (fun (w : Monitor.window) -> if keep w then Some w.Monitor.f1 else None)
      s.Engine.windows
  in
  let pre = mean (f1s (fun w -> w.Monitor.t_end < shift_ts)) in
  let post = mean (f1s (fun w -> w.Monitor.t_start > shift_ts)) in
  let recovery =
    match List.find_opt (fun sw -> sw.Engine.swap_ts >= shift_ts) s.Engine.swaps with
    | None -> None
    | Some sw ->
        List.find_opt
          (fun (w : Monitor.window) ->
            w.Monitor.t_start > sw.Engine.swap_ts && w.Monitor.f1 >= pre -. 0.05)
          s.Engine.windows
        |> Option.map (fun (w : Monitor.window) -> w.Monitor.t_end -. shift_ts)
  in
  (post, recovery)

(* The last percentile of 50, 90, 99, 99.9, ... that leaves at least ten
   samples beyond it. *)
let tail_percentile steps =
  let n = float_of_int (Array.length steps) in
  let rec go p best =
    if n *. (1. -. (p /. 100.)) >= 10. then go (100. -. ((100. -. p) /. 10.)) p
    else best
  in
  let p = go 90. 50. in
  (p, Report.percentile p steps)

let journal_stats dir =
  let files = Autopilot.generation_files ~dir in
  let bytes =
    List.fold_left (fun acc (_, path, _) -> acc + (Unix.stat path).Unix.st_size) 0 files
  in
  let loaded, load_s =
    Clock.time (fun () ->
        List.fold_left
          (fun acc (_, path, _) ->
            acc + Journal.loaded (Span.with_ sp_journal (fun () -> Journal.load path)))
          0 files)
  in
  (loaded, bytes, load_s)

(* Single-layer timings, each by re-running one layer's public function
   over what the traced pass served. *)
let layer_replays kind ~engine ~updater =
  let tr = Engine.trace engine in
  let n = tr.Engine.n in
  let per_pkt s = 1e9 *. s /. float_of_int (Stdlib.max 1 n) in
  let rt = Option.get (Engine.current_runtime engine) in
  let batch = 32 in
  let ws = Runtime.make_workspace rt in
  let src = Array.make batch [||] and dst = Array.make batch 0 in
  let classify () =
    Span.with_ sp_classify (fun () ->
        let i = ref 0 in
        while !i < n do
          let k = Stdlib.min batch (n - !i) in
          Array.blit tr.Engine.xs !i src 0 k;
          Runtime.classify_into rt ws ~src ~n:k ~dst;
          i := !i + k
        done)
  in
  Out.set ~n:(3 * n) "runtime.classify_ns_per_pkt" (per_pkt (Harness.median_s ~reps:3 classify));
  let calibration = Option.map (fun u -> Updater.calibration_sample u ~n:256) updater in
  let model = Engine.model engine in
  let load () =
    ignore
      (Span.with_ sp_load (fun () ->
           Runtime.load ~entries_per_feature:Engine.default_config.Engine.entries_per_feature
             ?calibration model))
  in
  Out.set ~n:5 "runtime.load_ms" (1e3 *. Harness.median_s ~reps:5 load);
  Out.seti "runtime.misses" (Runtime.miss_count rt);
  let observe () =
    let m = Monitor.create ~config:(monitor_config kind) ~n_classes:2 () in
    Span.with_ sp_monitor (fun () ->
        for i = 0 to n - 1 do
          Monitor.observe m ~ts:tr.Engine.completions.(i) ~queue_depth:0
            ~features:tr.Engine.xs.(i) ~pred:tr.Engine.verdicts.(i)
            ~truth:tr.Engine.truths.(i);
          if (i + 1) mod batch = 0 || i = n - 1 then
            ignore (Monitor.advance m ~now:tr.Engine.completions.(i))
        done)
  in
  Out.set ~n:(3 * n) "monitor.ns_per_pkt" (per_pkt (Harness.median_s ~reps:3 observe));
  if Option.is_some updater then begin
    let record () =
      let u =
        Updater.create (Rng.create (workload_seed + 2)) ~n_features:(Botnet.n_features Botnet.Fused)
          ~n_classes:2 ()
      in
      Span.with_ sp_record (fun () ->
          for i = 0 to n - 1 do
            Updater.record u ~features:tr.Engine.xs.(i) ~label:tr.Engine.truths.(i)
          done)
    in
    Out.set ~n:(3 * n) "updater.record_ns" (per_pkt (Harness.median_s ~reps:3 record))
  end;
  n

let run kind ~seed ~seconds ~trace ~scratch =
  (* Set up three times, keeping only the latest scenario alive. *)
  let last = ref None in
  let setups =
    List.init 3 (fun _ ->
        last := None;
        let (scenario, parts), dt = Clock.time (fun () -> setup kind ~seed) in
        last := Some scenario;
        (parts, dt))
  in
  let scenario = Option.get !last in
  Out.set ~n:3 "setup_s" (Harness.median (List.map snd setups));
  let part f = Harness.median (List.map (fun (parts, _) -> f parts) setups) in
  Out.set ~n:3 "setup.data_s" (part (fun (d, _, _) -> d));
  Out.set ~n:3 "setup.trace_s" (part (fun (_, t, _) -> t));
  Out.set ~n:3 "setup.bootstrap_s" (part (fun (_, _, b) -> b));
  let events = scenario.events in
  let n = Array.length events in
  let step_ns = Array.make n 0 in
  let step_us = Array.make n 0. in
  (* The traced pass's engine and the journal of its re-searches, kept for
     the single-layer replays after the pass loop. *)
  let last_traced = ref None in
  let journal = ref (0, 0, 0.) in
  let one_pass i =
    let traced = trace && i mod 2 = 1 in
    Span.set_enabled traced;
    let monitor = Monitor.create ~config:(monitor_config kind) ~n_classes:2 () in
    let updater, pilot, journal_dir =
      match kind with
      | Steady -> (None, None, None)
      | Shift ->
          let dir = Filename.concat scratch (Printf.sprintf "pass-%d" i) in
          let updater =
            Updater.create (Rng.create (workload_seed + 2))
              ~n_features:(Botnet.n_features Botnet.Fused) ~n_classes:2 ()
          in
          let pilot =
            Autopilot.create
              {
                (Autopilot.default_config ~platform:(Platform.taurus ()) ~journal_dir:dir)
                with
                Autopilot.seed = workload_seed;
              }
              ~updater
          in
          (Some updater, Some pilot, Some dir)
    in
    let calls = ref [] and searches = ref 0 in
    let research =
      Option.map
        (fun pilot ->
          let hook = Autopilot.hook pilot in
          fun ~now ~drift ~incumbent ->
            if !searches >= max_searches then Engine.Keep
            else begin
              Span.enter sp_research;
              let t0 = Clock.now_ns () in
              let reaction =
                Fun.protect
                  ~finally:(fun () ->
                    calls := Clock.since_s t0 :: !calls;
                    Span.exit ())
                  (fun () -> hook ~now ~drift ~incumbent)
              in
              (match List.rev (Autopilot.events pilot) with
              | e :: _ when e.Autopilot.generation >= 0 -> incr searches
              | _ -> ());
              reaction
            end)
        pilot
    in
    let config =
      { Engine.default_config with Engine.mode = Engine.Quantized; trace_capacity = n }
    in
    let engine = Engine.create ~config ~model:scenario.model ~monitor ?updater ?research () in
    let gc0 = Gc.quick_stat () in
    let t0 = Clock.now_ns () in
    let prev = ref t0 in
    for j = 0 to n - 1 do
      Span.enter sp_step;
      Engine.step engine events.(j);
      Span.exit ();
      let t = Clock.now_ns () in
      step_ns.(j) <- t - !prev;
      prev := t
    done;
    let summary = Span.with_ sp_finish (fun () -> Engine.finish engine) in
    let wall_s = Clock.since_s t0 in
    let gc1 = Gc.quick_stat () in
    Span.set_enabled trace;
    for j = 0 to n - 1 do
      step_us.(j) <- 1e-3 *. float_of_int step_ns.(j)
    done;
    let calls = List.rev !calls in
    let pilot_events = match pilot with Some p -> Autopilot.events p | None -> [] in
    let searched =
      List.filter_map
        (fun ((e : Autopilot.event), s) -> if e.Autopilot.generation >= 0 then Some s else None)
        (List.combine pilot_events calls)
    in
    (match journal_dir with
    | Some dir ->
        if traced then journal := journal_stats dir;
        Harness.remove_tree dir
    | None -> ());
    (* The differential replay runs on the first pass; later passes must
       then reproduce its verdicts exactly (checked on every pass below). *)
    let replay = if i = 0 then Some (Serve_eval.replay_quantized engine) else None in
    let tr = Engine.trace engine in
    let s = summary in
    let quality, recovery_s =
      match kind with
      | Steady ->
          (mean (List.map (fun (w : Monitor.window) -> w.Monitor.f1) s.Engine.windows), None)
      | Shift -> shift_figures ~shift_ts:scenario.shift_ts s
    in
    let conserved = s.Engine.offered = s.Engine.served + s.Engine.dropped && s.Engine.offered = n in
    let exact =
      match replay with
      | Some r -> r.Serve_eval.mismatches = [] && r.Serve_eval.replayed = s.Engine.served
      | None -> true
    in
    let swaps_clean =
      List.for_all (fun sw -> sw.Engine.dropped_during_swap = 0) s.Engine.swaps
    in
    let shift_ok =
      match kind with
      | Steady -> true
      | Shift ->
          List.exists
            (fun (e : Autopilot.event) ->
              match e.Autopilot.outcome with Autopilot.Installed _ -> true | _ -> false)
            pilot_events
          && Option.is_some recovery_s
    in
    if traced then last_traced := Some (engine, updater);
    ( {
      wall_s;
      served = s.Engine.served;
      offered = s.Engine.offered;
      dropped = s.Engine.dropped;
      swaps = List.length s.Engine.swaps;
      windows = List.length s.Engine.windows;
      drifts = List.length s.Engine.drift_events;
      steps =
        (if i < percentile_passes then
           Some
             ( Report.percentile 50. step_us,
               Report.percentile 99. step_us,
               tail_percentile step_us )
         else None);
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      research_s = searched;
      research_busy_s = List.fold_left ( +. ) 0. calls;
      pilot = pilot_events;
      quality;
      recovery_s;
      verdicts =
        Digest.to_hex
          (Digest.string
             (String.init tr.Engine.n (fun j -> Char.chr (tr.Engine.verdicts.(j) land 255))));
      exact = conserved && exact && swaps_clean;
      recovered = shift_ok;
      traced;
    },
      wall_s )
  in
  let passes = Harness.passes ~seconds ~min:2 one_pass in
  let first = List.hd passes in
  if kind = Shift then begin
    Printf.printf "shift at t = %.1f s; autopilot events of pass 0:\n" scenario.shift_ts;
    List.iter
      (fun e ->
        Printf.printf "  %s (%d replayed, %d fresh, %.3f s)\n" (Autopilot.event_to_string e)
          e.Autopilot.replayed e.Autopilot.fresh e.Autopilot.wall_s)
      first.pilot
  end;
  let pilot_log p = String.concat "\n" (List.map Autopilot.event_to_string p.pilot) in
  let same p = p.verdicts = first.verdicts && pilot_log p = pilot_log first in
  let ok p = p.exact && p.recovered && same p in
  Out.check "offered = served + dropped, quantized replay exact, clean swaps"
    (List.for_all (fun p -> p.exact) passes);
  Out.check "same verdicts and autopilot events every pass" (List.for_all same passes);
  if kind = Shift then
    Out.check "at least one install and a recovery" (List.for_all (fun p -> p.recovered) passes);
  let untraced = List.filter (fun p -> not p.traced) passes in
  let k = List.length untraced in
  let med f = Harness.median (List.map f untraced) in
  let wall = med (fun p -> p.wall_s) in
  Out.set ~n:k "pass_s" wall;
  Out.set "quality" first.quality;
  let drops = List.fold_left (fun acc p -> acc + p.dropped) 0 passes in
  let offered = List.fold_left (fun acc p -> acc + p.offered) 0 passes in
  let pps = float_of_int first.served /. wall in
  Out.note ~n:k "serve_pps" "pkt/s" pps;
  let sampled = List.filter_map (fun p -> p.steps) untraced in
  let ns = List.length sampled * n in
  let step f = Harness.median (List.map f sampled) in
  let p50 = step (fun (v, _, _) -> v) and p99 = step (fun (_, v, _) -> v) in
  Out.note ~n:ns "step_p50_us" "us" p50;
  Out.note ~n:ns "step_p99_us" "us" p99;
  let tail_p = match sampled with (_, _, (p, _)) :: _ -> p | [] -> Float.nan in
  Out.note ~n:ns (Printf.sprintf "step_p%g_us (not gated)" tail_p) "us"
    (step (fun (_, _, (_, v)) -> v));
  Out.note ~n:offered "drop_frac" "1" (float_of_int drops /. float_of_int offered);
  if kind = Shift then begin
    let research = List.concat_map (fun p -> p.research_s) untraced in
    Out.note ~n:(List.length research) "research_s" "s" (Harness.median research);
    Out.note "recovery_s (virtual)" "s" (Option.value first.recovery_s ~default:Float.nan);
    Out.note "post_shift_f1" "1" first.quality
  end;
  if trace then begin
    Out.seti "engine.steps" n;
    Out.seti "engine.served" first.served;
    Out.seti "engine.dropped" first.dropped;
    Out.seti "engine.swaps" first.swaps;
    Out.set ~n:k "engine.serve_pps" pps;
    Out.set ~n:ns "engine.step_p50_us" p50;
    Out.set ~n:ns "engine.step_p99_us" p99;
    Out.seti "monitor.windows" first.windows;
    Out.seti "monitor.drifts" first.drifts;
    Out.set ~n:k "gc.minor_words_per_pkt" (med (fun p -> p.minor_words /. float_of_int p.served));
    Out.set ~n:k "gc.major_collections" (med (fun p -> float_of_int p.major_collections));
    let count f = List.length (List.filter f first.pilot) in
    let sum f = List.fold_left (fun acc e -> acc + f e) 0 first.pilot in
    Out.seti "autopilot.searches" (count (fun e -> e.Autopilot.generation >= 0));
    Out.seti "autopilot.installs"
      (count (fun e ->
           match e.Autopilot.outcome with Autopilot.Installed _ -> true | _ -> false));
    let replayed = sum (fun e -> e.Autopilot.replayed) in
    let fresh = sum (fun e -> e.Autopilot.fresh) in
    Out.seti "autopilot.replayed" replayed;
    Out.seti "autopilot.fresh" fresh;
    if replayed + fresh > 0 then
      Out.set "autopilot.replay_frac" (float_of_int replayed /. float_of_int (replayed + fresh));
    Out.set ~n:k "autopilot.research_busy_s" (med (fun p -> p.research_busy_s));
    let research = List.concat_map (fun p -> p.research_s) untraced in
    if research <> [] then
      Out.set ~n:(List.length research) "autopilot.research_s" (Harness.median research);
    Option.iter (Out.set "autopilot.recovery_s") first.recovery_s;
    let records, bytes, load_s = !journal in
    Out.seti "journal.records" records;
    Out.seti "journal.bytes" bytes;
    Out.set "journal.load_ms" (1e3 *. load_s);
    let traced = List.filter (fun p -> p.traced) passes in
    let traced_wall = Harness.median (List.map (fun p -> p.wall_s) traced) in
    Out.set ~n:(List.length traced) "trace.slowdown" (traced_wall /. wall);
    Out.set ~n:(List.length traced) "share.research_of_pass"
      (Harness.median (List.map (fun p -> p.research_busy_s /. p.wall_s) traced));
    let engine, updater = Option.get !last_traced in
    let served = layer_replays kind ~engine ~updater in
    (* runtime + monitor per packet against the engine's own per-step self
       time (step self time excludes the research child span). *)
    let per_pkt name = fst (Hashtbl.find Out.values name) *. 1e-9 *. float_of_int served in
    let step_self = Span.self_s "engine.step" +. Span.self_s "engine.finish" in
    let traced_n = float_of_int (List.length traced) in
    Out.set ~n:(Span.count "engine.step") "engine.step_self_us"
      (1e6 *. Span.self_s "engine.step" /. float_of_int (Stdlib.max 1 (Span.count "engine.step")));
    Out.set "share.runtime_monitor_of_step"
      ((per_pkt "runtime.classify_ns_per_pkt" +. per_pkt "monitor.ns_per_pkt")
      /. (step_self /. traced_n))
  end;
  let failed_pkts =
    List.fold_left (fun acc p -> acc + if ok p then p.dropped else p.offered) 0 passes
  in
  (offered, failed_pkts)
