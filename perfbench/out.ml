(* Metric collection, correctness checks, and the result line.

   Every workload emits every metric of both catalogues: an end-to-end
   metric is defined on all four workloads, and a per-layer metric whose
   layer a workload never calls reads 0 there (that is the prediction for
   it). run.py checks these names and units against BENCHMARK.json. *)

module Json = Homunculus_util.Json

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("quality", "1"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("evaluator.evaluations", "count");
    ("evaluator.estimates", "count");
    ("evaluator.train_busy_s", "s");
    ("evaluator.lower_busy_s", "s");
    ("evaluator.estimate_busy_s", "s");
    ("par.busy_frac", "1");
    ("optimizer.proposals", "count");
    ("optimizer.replay_s", "s");
    ("surrogate.fit_ms", "ms");
    ("acquisition.score_us", "us");
    ("codegen.emit_ms", "ms");
    ("codegen.lines", "count");
    ("platform.estimate_us", "us");
    ("engine.steps", "count");
    ("engine.served", "count");
    ("engine.dropped", "count");
    ("engine.swaps", "count");
    ("engine.serve_pps", "1/s");
    ("engine.step_p50_us", "us");
    ("engine.step_p99_us", "us");
    ("engine.step_self_us", "us");
    ("runtime.classify_ns_per_pkt", "ns");
    ("runtime.load_ms", "ms");
    ("runtime.misses", "count");
    ("monitor.ns_per_pkt", "ns");
    ("monitor.windows", "count");
    ("monitor.drifts", "count");
    ("updater.record_ns", "ns");
    ("gc.minor_words_per_pkt", "words/pkt");
    ("gc.major_collections", "count");
    ("autopilot.searches", "count");
    ("autopilot.installs", "count");
    ("autopilot.research_busy_s", "s");
    ("autopilot.research_s", "s");
    ("autopilot.replayed", "count");
    ("autopilot.fresh", "count");
    ("autopilot.replay_frac", "1");
    ("autopilot.recovery_s", "s");
    ("journal.records", "count");
    ("journal.bytes", "B");
    ("journal.load_ms", "ms");
    ("setup.data_s", "s");
    ("setup.trace_s", "s");
    ("setup.bootstrap_s", "s");
    ("share.train_of_evaluator", "1");
    ("share.replay_of_compile", "1");
    ("share.runtime_monitor_of_step", "1");
    ("share.research_of_pass", "1");
    ("trace.slowdown", "1");
    ("trace.spans", "count");
  ]

(* name -> (value, sample count) *)
let values : (string, float * int) Hashtbl.t = Hashtbl.create 64

let set ?(n = 1) name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer) then
    invalid_arg ("Out.set: unknown metric " ^ name);
  Hashtbl.replace values name (v, n)

let seti ?n name i = set ?n name (float_of_int i)

(* Printed, never part of the result line: the figures only some workloads
   define (compile_s, serve_pps, ...) and tails that are reported but not
   gated. *)
let notes = ref []
let note ?(n = 1) name unit_ v = notes := (name, unit_, v, n) :: !notes

let checks = ref []
let check name ok = checks := (name, ok) :: !checks
let all_ok () = List.for_all snd !checks

let show (name, unit_, v, n) =
  Printf.printf "  %-34s %16.6g %-9s n=%d\n" name v unit_ n

let print ~trace ~attempted ~failed =
  let row (name, unit_) =
    match Hashtbl.find_opt values name with
    | Some (v, n) -> Some (name, unit_, v, n)
    | None -> None
  in
  print_endline "end-to-end:";
  List.iter (fun m -> Option.iter show (row m)) end_to_end;
  print_endline "workload figures:";
  List.iter show (List.rev !notes);
  if trace then begin
    print_endline "per-layer:";
    List.iter (fun m -> Option.iter show (row m)) per_layer
  end;
  print_endline "checks:";
  List.iter
    (fun (name, ok) -> Printf.printf "  %-34s %s\n" name (if ok then "ok" else "FAILED"))
    (List.rev !checks);
  let metric (name, unit_) =
    let v =
      match Hashtbl.find_opt values name with
      | Some (v, _) -> v
      | None when trace -> 0.
      | None -> failwith ("Out.print: end-to-end metric not measured: " ^ name)
    in
    (name, Json.Object [ ("value", Json.Number v); ("unit", Json.String unit_) ])
  in
  let result =
    Json.Object
      [
        ("correct", Json.Bool (all_ok ()));
        ("attempted", Json.Number (float_of_int attempted));
        ("failed", Json.Number (float_of_int failed));
        ("metrics", Json.Object (List.map metric (if trace then per_layer else end_to_end)));
      ]
  in
  print_endline (Json.to_string ~pretty:false result)
