(* The compile path: Compiler.search_model -> Evaluator -> Bo -> backends.

   A pass is one whole search of a fixed spec, code emission included. The
   traced run adds timings of single layers, each taken by calling that
   layer's public function on the outputs of the search. *)

module Bo = Homunculus_bo
module Par = Homunculus_par.Par
module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset
module Compiler = Homunculus_core.Compiler
module Evaluator = Homunculus_core.Evaluator
module Space_builder = Homunculus_core.Space_builder
module Platform = Homunculus_alchemy.Platform
module Model_spec = Homunculus_alchemy.Model_spec
module Resource = Homunculus_backends.Resource
module Nslkdd = Homunculus_netdata.Nslkdd
module Iot = Homunculus_netdata.Iot
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor

type params = {
  spec_name : string;
  algorithm : Model_spec.algorithm;
  platform : unit -> Platform.t;
  data : Rng.t -> Dataset.t * Dataset.t;
  n_init : int;
  budget : int;
}

(* compile_dnn: the AD spec, DNN only, on half the `homc compile ad` data
   sizes so that one run can search several datasets. *)
let dnn =
  {
    spec_name = "anomaly_detection";
    algorithm = Model_spec.Dnn;
    platform = (fun () -> Platform.taurus ());
    data = (fun _ -> Nslkdd.generate_split (Rng.create 7) ~n_train:1500 ~n_test:600 ());
    n_init = 6;
    budget = 24;
  }

(* compile_tree: the TC spec on a small IoT split, decision trees only. *)
let tree =
  {
    spec_name = "traffic_classification";
    algorithm = Model_spec.Tree;
    platform = (fun () -> Platform.tofino ());
    data = (fun rng -> (Iot.generate (Rng.create 7) ~n:600 (), Iot.generate rng ~n:300 ()));
    n_init = 75;
    budget = 300;
  }

let make_spec p ~seed =
  Model_spec.make ~name:p.spec_name ~metric:Model_spec.F1
    ~algorithms:[ p.algorithm ]
    ~loader:(fun () ->
      let train, test = p.data (Rng.create seed) in
      Model_spec.data ~train ~test)
    ()

(* The search's own seed is part of the workload, like its budget: the
   benchmark seed varies the data the compiler sees, not how the optimizer
   draws, so every seed asks for a comparable amount of work. *)
let search_seed = 2023

let options p =
  {
    Compiler.default_options with
    Compiler.seed = search_seed;
    bo_settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = p.n_init;
        n_iter = p.budget - p.n_init;
        batch_size = Harness.batch_size;
      };
    emit_code = true;
  }

(* Order-sensitive digest of everything the search decided: every
   proposal's configuration, objective bits, and feasibility. *)
let history_digest history =
  Bo.History.entries history
  |> List.map (fun (e : Bo.History.entry) ->
         Printf.sprintf "%s|%h|%b|%b"
           (Bo.Config.to_string e.Bo.History.config)
           e.Bo.History.objective e.Bo.History.feasible e.Bo.History.pruned)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let winner_key (r : Compiler.model_result) =
  let a = r.Compiler.artifact in
  Printf.sprintf "%s %s %h"
    (Model_spec.algorithm_to_string a.Evaluator.algorithm)
    (Bo.Config.to_string a.Evaluator.config)
    a.Evaluator.objective

(* What a run keeps of each search. Results themselves are dropped as soon
   as they are summarised, so that peak memory does not grow with the
   number of passes a run fits in. *)
type pass = {
  dataset : int;
  digest : string;  (** [history_digest] of the winning history *)
  winner : string;  (** [winner_key] *)
  emitted : bool;  (** feasible winner with non-empty code *)
  objective : float;
  wall_s : float;
  timing : Evaluator.Timing.snapshot;
  traced : bool;
}

let sp_load = Span.name "spec.load"
let sp_search = Span.name "compiler.search_model"
let sp_emit = Span.name "compiler.emit_code"
let sp_estimate = Span.name "platform.estimate"
let sp_replay = Span.name "optimizer.replay"
let sp_fit = Span.name "surrogate.fit"
let sp_score = Span.name "acquisition.score"

let search ~options platform spec =
  Evaluator.Timing.reset ();
  let result, wall_s =
    Clock.time (fun () ->
        Span.with_ sp_search (fun () -> Compiler.search_model ~options platform spec))
  in
  (result, wall_s, Evaluator.Timing.snapshot ())

(* The same search re-driven through a supervisor whose replay table holds
   every evaluation the first search made: the optimizer, surrogate fits,
   acquisition and emission run again, training does not — except one
   rebuild of the winner, which a replayed search retrains from its
   config-derived seed. *)
let replay ~scratch ~options platform spec (r : Compiler.model_result) =
  let path = Filename.concat scratch "replay.jsonl" in
  let journal = Journal.open_ ~fsync_every:max_int path in
  List.iter
    (fun (algorithm, history) ->
      let scope =
        Model_spec.name spec ^ "/" ^ Model_spec.algorithm_to_string algorithm
      in
      List.iter
        (fun (e : Bo.History.entry) ->
          ignore
            (Journal.append journal
               {
                 Journal.scope;
                 index = e.Bo.History.iteration - 1;
                 config = e.Bo.History.config;
                 objective = e.Bo.History.objective;
                 feasible = e.Bo.History.feasible;
                 pruned = e.Bo.History.pruned;
                 metadata = e.Bo.History.metadata;
                 failure = None;
                 kind = Journal.Exact;
               }))
        (Bo.History.entries history))
    r.Compiler.histories;
  Journal.close journal;
  let supervisor = Supervisor.create ~replay:(Journal.load path) () in
  let options = { options with Compiler.supervisor = Some supervisor } in
  let replayed, replay_s =
    Clock.time (fun () ->
        Span.with_ sp_replay (fun () -> Compiler.search_model ~options platform spec))
  in
  Out.check "replay reproduces the history"
    (history_digest replayed.Compiler.history = history_digest r.Compiler.history
    && Supervisor.replayed_count supervisor = Bo.History.length r.Compiler.history);
  replay_s

(* Surrogate fit on the final history's feasible slice, and EI scoring of
   one candidate pool against it — the optimizer's two per-round costs. *)
let optimizer_layers ~seed ~options platform spec p (r : Compiler.model_result) =
  let settings = options.Compiler.bo_settings in
  let xs, ys, feasible = Bo.History.training_arrays r.Compiler.history in
  let keep = List.filter (fun i -> feasible.(i)) (List.init (Array.length xs) Fun.id) in
  let x = Array.of_list (List.map (fun i -> xs.(i)) keep) in
  let y = Array.of_list (List.map (fun i -> ys.(i)) keep) in
  let fit () =
    Span.with_ sp_fit (fun () ->
        Bo.Surrogate.fit (Rng.create seed) ~n_trees:settings.Bo.Optimizer.surrogate_trees
          ~pool:(Par.default ()) ~x ~y ())
  in
  let fit_s = Harness.median_s ~reps:5 (fun () -> ignore (fit ())) in
  let surrogate = fit () in
  let input_dim = Dataset.n_features (Model_spec.load spec).Model_spec.train in
  let space = Space_builder.build platform p.algorithm ~input_dim in
  let rng = Rng.create seed in
  let pool =
    Array.init settings.Bo.Optimizer.pool_size (fun _ ->
        Bo.Design_space.encode space (Bo.Design_space.sample rng space))
  in
  let best = Array.fold_left Float.max Float.neg_infinity y in
  let score () =
    Span.with_ sp_score (fun () ->
        Array.iter
          (fun point ->
            let mean, std = Bo.Surrogate.predict surrogate point in
            ignore
              (Sys.opaque_identity (Bo.Acquisition.expected_improvement ~mean ~std ~best)))
          pool)
  in
  let score_s = Harness.median_s ~reps:5 score in
  Out.set ~n:5 "surrogate.fit_ms" (1e3 *. fit_s);
  Out.set ~n:(5 * Array.length pool) "acquisition.score_us"
    (1e6 *. score_s /. float_of_int (Array.length pool))

let backend_layers platform (r : Compiler.model_result) =
  let ir = r.Compiler.artifact.Evaluator.model_ir in
  let code = ref "" in
  let emit_s =
    Harness.median_s ~reps:5 (fun () ->
        code := Span.with_ sp_emit (fun () -> Compiler.emit_code platform ir))
  in
  let estimate_s =
    Harness.median_s ~reps:50 (fun () ->
        ignore (Span.with_ sp_estimate (fun () -> Platform.estimate platform ir)))
  in
  Out.set ~n:5 "codegen.emit_ms" (1e3 *. emit_s);
  Out.seti "codegen.lines" (List.length (String.split_on_char '\n' !code));
  Out.set ~n:50 "platform.estimate_us" (1e6 *. estimate_s)

(* Pass [j]'s dataset seed. compile_tree draws a fresh test split from it
   on every pass, so one run's time is a median over several datasets, not
   a property of one draw; compile_dnn's data ignores it. *)
let data_seed ~seed j = Hashtbl.hash (seed, j)

let run p ~seed ~seconds ~trace ~scratch =
  let platform = p.platform () in
  let options = options p in
  (* Set-up, once per dataset: build the spec and force its lazy data
     load. *)
  let specs = Hashtbl.create 8 and setups = ref [] in
  let spec_for j =
    match Hashtbl.find_opt specs j with
    | Some spec -> spec
    | None ->
        let spec, dt =
          Clock.time (fun () ->
              let spec = make_spec p ~seed:(data_seed ~seed j) in
              ignore (Span.with_ sp_load (fun () -> Model_spec.load spec));
              spec)
        in
        setups := dt :: !setups;
        Hashtbl.add specs j spec;
        spec
  in
  (* The first search's result feeds the traced run's single-layer
     timings; dataset 0 is searched again at the end. *)
  let first_result = ref None in
  let pass ~dataset ~traced =
    let spec = spec_for dataset in
    Span.set_enabled traced;
    let result, wall_s, timing = search ~options platform spec in
    Span.set_enabled trace;
    if !first_result = None then first_result := Some result;
    if dataset <> 0 && (traced || not trace) then Hashtbl.remove specs dataset;
    let a = result.Compiler.artifact in
    ( {
        dataset;
        digest = history_digest result.Compiler.history;
        winner = winner_key result;
        emitted =
          a.Evaluator.verdict.Resource.feasible
          && (match result.Compiler.code with Some c -> c <> "" | None -> false);
        objective = a.Evaluator.objective;
        wall_s;
        timing;
        traced;
      },
      wall_s )
  in
  (* Untraced runs search datasets 0, 1, 2, ... and then dataset 0 once
     more, the determinism check. The traced run searches each dataset
     twice, untraced then traced: the pair is both the determinism check
     and the two sides of the tracing-overhead ratio. *)
  let passes =
    if trace then
      Harness.passes ~seconds ~min:2 (fun i ->
          pass ~dataset:(i / 2) ~traced:(i mod 2 = 1))
    else
      Harness.passes ~seconds ~min:3 ~reserve:1 (fun i -> pass ~dataset:i ~traced:false)
      @ [ fst (pass ~dataset:0 ~traced:false) ]
  in
  let first_of d = List.find (fun ps -> ps.dataset = d) passes in
  let failed = ref 0 in
  List.iter
    (fun ps ->
      let base = first_of ps.dataset in
      if not (ps.emitted && ps.digest = base.digest && ps.winner = base.winner) then
        incr failed)
    passes;
  Out.check "winner feasible, code emitted, same history and winner per dataset"
    (!failed = 0);
  let datasets = List.sort_uniq compare (List.map (fun ps -> ps.dataset) passes) in
  let per_dataset f =
    List.map
      (fun d ->
        Harness.median
          (List.filter_map
             (fun ps -> if ps.dataset = d && not ps.traced then Some (f ps) else None)
             passes))
      datasets
  in
  let k = List.length datasets in
  Out.set ~n:(List.length !setups) "setup_s" (Harness.median !setups);
  Out.set ~n:(List.length !setups) "setup.data_s" (Harness.median !setups);
  let wall = Harness.median (per_dataset (fun ps -> ps.wall_s)) in
  Out.set ~n:k "pass_s" wall;
  let objectives = per_dataset (fun ps -> ps.objective) in
  let objective = List.fold_left ( +. ) 0. objectives /. float_of_int k in
  Out.set ~n:k "quality" objective;
  Out.note ~n:k "compile_s" "s" wall;
  Out.note ~n:k "winner_objective" "1" objective;
  if trace then begin
    let n = List.length passes in
    let med f = Harness.median (List.map (fun ps -> f ps.timing) passes) in
    let train = med (fun t -> t.Evaluator.Timing.train_s) in
    let lower = med (fun t -> t.Evaluator.Timing.lower_s) in
    let estimate = med (fun t -> t.Evaluator.Timing.estimate_s) in
    let first = List.hd passes and result = Option.get !first_result in
    let t = first.timing in
    Out.seti "evaluator.evaluations" t.Evaluator.Timing.evaluations;
    Out.seti "evaluator.estimates" t.Evaluator.Timing.estimates;
    Out.set ~n "evaluator.train_busy_s" train;
    Out.set ~n "evaluator.lower_busy_s" lower;
    Out.set ~n "evaluator.estimate_busy_s" estimate;
    let busy = train +. lower +. estimate in
    Out.set ~n "par.busy_frac" (busy /. (wall *. float_of_int (Par.jobs (Par.default ()))));
    Out.set ~n "share.train_of_evaluator" (train /. busy);
    Out.seti "optimizer.proposals" (Bo.History.length result.Compiler.history);
    let spec = spec_for 0 in
    let replay_s = replay ~scratch ~options platform spec result in
    Out.set "optimizer.replay_s" replay_s;
    Out.set "share.replay_of_compile" (replay_s /. first.wall_s);
    optimizer_layers ~seed ~options platform spec p result;
    backend_layers platform result;
    let pairs =
      List.filter_map
        (fun ps ->
          if ps.traced then Some (ps.wall_s /. (first_of ps.dataset).wall_s) else None)
        passes
    in
    Out.set ~n:(List.length pairs) "trace.slowdown" (Harness.median pairs)
  end;
  (List.length passes, !failed)
