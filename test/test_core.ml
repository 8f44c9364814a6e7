(* Candidate filtering, space building, evaluation, fusion, and the full
   compiler driver. *)
open Homunculus_alchemy
open Homunculus_backends
open Homunculus_core
module Bo = Homunculus_bo
module Rng = Homunculus_util.Rng
module Dataset = Homunculus_ml.Dataset

(* A small, learnable two-feature task. *)
let blob_dataset seed n =
  let rng = Rng.create seed in
  let x =
    Array.init n (fun i ->
        let mu = if i mod 2 = 0 then -2. else 2. in
        [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])
  in
  let y = Array.init n (fun i -> i mod 2) in
  Dataset.create ~feature_names:[| "a"; "b" |] ~x ~y ~n_classes:2 ()

let blob_spec ?(name = "blobs") ?algorithms () =
  Model_spec.make ~name ?algorithms
    ~loader:(fun () ->
      Model_spec.data ~train:(blob_dataset 1 120) ~test:(blob_dataset 2 60))
    ()

let cluster_spec ?(name = "clusters") () =
  Model_spec.make ~name ~metric:Model_spec.V_measure
    ~algorithms:[ Model_spec.Kmeans ]
    ~loader:(fun () ->
      Model_spec.data ~train:(blob_dataset 3 120) ~test:(blob_dataset 4 60))
    ()

let tiny_options =
  {
    Compiler.default_options with
    Compiler.bo_settings =
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = 3;
        n_iter = 3;
        pool_size = 32;
      };
  }

(* Candidate *)

let test_metric_compatibility () =
  Alcotest.(check bool) "vmeasure kmeans" true
    (Candidate.metric_compatible Model_spec.V_measure Model_spec.Kmeans);
  Alcotest.(check bool) "vmeasure dnn" false
    (Candidate.metric_compatible Model_spec.V_measure Model_spec.Dnn);
  Alcotest.(check bool) "f1 kmeans" false
    (Candidate.metric_compatible Model_spec.F1 Model_spec.Kmeans);
  Alcotest.(check bool) "f1 tree" true
    (Candidate.metric_compatible Model_spec.F1 Model_spec.Tree)

let test_platform_compatibility () =
  Alcotest.(check bool) "taurus dnn" true
    (Candidate.platform_compatible (Platform.taurus ()) Model_spec.Dnn);
  Alcotest.(check bool) "tofino dnn" false
    (Candidate.platform_compatible (Platform.tofino ()) Model_spec.Dnn)

let test_filter_intersects () =
  let algos = Candidate.filter (Platform.taurus ()) (blob_spec ()) in
  (* F1 on Taurus: dnn/svm/tree survive, kmeans is metric-incompatible. *)
  Alcotest.(check (list string)) "supervised survive" [ "dnn"; "svm"; "tree" ]
    (List.map Model_spec.algorithm_to_string algos)

let test_filter_kmeans_for_clustering () =
  let algos = Candidate.filter (Platform.tofino ()) (cluster_spec ()) in
  Alcotest.(check (list string)) "kmeans only" [ "kmeans" ]
    (List.map Model_spec.algorithm_to_string algos)

(* Space builder *)

let test_dnn_space_contents () =
  let s = Space_builder.build (Platform.taurus ()) Model_spec.Dnn ~input_dim:7 in
  Alcotest.(check bool) "has n_layers" true
    (Bo.Design_space.find_param s "n_layers" <> None);
  Alcotest.(check bool) "has learning_rate" true
    (Bo.Design_space.find_param s "learning_rate" <> None);
  Alcotest.(check bool) "has width9" true
    (Bo.Design_space.find_param s "width9" <> None);
  Alcotest.(check bool) "has weight_decay" true
    (Bo.Design_space.find_param s "weight_decay" <> None);
  Alcotest.(check int) "dim = 7 + 10 widths" 17 (Bo.Design_space.dim s)

let test_width_bound_shrinks_with_grid () =
  let big = Space_builder.dnn_width_bound (Platform.taurus ()) ~input_dim:7 in
  let small =
    Space_builder.dnn_width_bound
      (Platform.with_resources (Platform.taurus ()) ~rows:4 ~cols:4)
      ~input_dim:7
  in
  Alcotest.(check bool) "smaller grid, narrower bound" true (small < big);
  Alcotest.(check bool) "clamped sane" true (small >= 4 && big <= 64)

let test_kmeans_space_tofino_budget () =
  let s =
    Space_builder.build
      (Platform.with_tables (Platform.tofino ()) 5)
      Model_spec.Kmeans ~input_dim:7
  in
  match Bo.Design_space.find_param s "k" with
  | Some { Bo.Param.kind = Bo.Param.Int { hi; _ }; _ } ->
      Alcotest.(check int) "k bounded by tables" 5 hi
  | _ -> Alcotest.fail "k parameter missing"

let test_hidden_layers_decoding () =
  let config =
    Bo.Config.make
      ([ ("n_layers", Bo.Param.Int_value 2) ]
      @ List.init 10 (fun i ->
            (Printf.sprintf "width%d" i, Bo.Param.Int_value (i + 3))))
  in
  Alcotest.(check (array int)) "first two widths" [| 3; 4 |]
    (Space_builder.hidden_layers_of_config config)

(* Evaluator *)

let sample_config space = Bo.Design_space.sample (Rng.create 5) space

let test_evaluator_dnn_artifact () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let space = Space_builder.build platform Model_spec.Dnn ~input_dim:2 in
  let artifact =
    Evaluator.evaluate (Rng.create 6) platform spec Model_spec.Dnn
      (sample_config space)
  in
  Alcotest.(check bool) "objective sane" true
    (artifact.Evaluator.objective >= 0. && artifact.Evaluator.objective <= 1.);
  Alcotest.(check string) "model named after spec" "blobs"
    (Model_ir.name artifact.Evaluator.model_ir);
  Alcotest.(check string) "algorithm" "dnn"
    (Model_ir.algorithm artifact.Evaluator.model_ir)

let test_evaluator_learns_blobs () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let config =
    Bo.Config.make
      ([
         ("n_layers", Bo.Param.Int_value 1);
         ("learning_rate", Bo.Param.Real_value 0.01);
         ("batch_size", Bo.Param.Index_value 1);
         ("epochs", Bo.Param.Int_value 25);
         ("activation", Bo.Param.Index_value 0);
         ("weight_decay", Bo.Param.Real_value 1e-6);
         ("lr_decay", Bo.Param.Index_value 2);
       ]
      @ List.init 10 (fun i ->
            (Printf.sprintf "width%d" i, Bo.Param.Int_value 8)))
  in
  let artifact =
    Evaluator.evaluate (Rng.create 7) platform spec Model_spec.Dnn config
  in
  Alcotest.(check bool) "high f1 on separable blobs" true
    (artifact.Evaluator.objective > 0.9);
  Alcotest.(check bool) "feasible" true
    artifact.Evaluator.verdict.Resource.feasible

let test_evaluator_tree_and_svm () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let tree_config =
    Bo.Config.make
      [ ("max_depth", Bo.Param.Int_value 5); ("min_samples_leaf", Bo.Param.Int_value 2) ]
  in
  let a = Evaluator.evaluate (Rng.create 8) platform spec Model_spec.Tree tree_config in
  Alcotest.(check string) "tree" "tree" (Model_ir.algorithm a.Evaluator.model_ir);
  Alcotest.(check bool) "tree learns" true (a.Evaluator.objective > 0.85);
  let svm_config =
    Bo.Config.make
      [ ("lambda", Bo.Param.Real_value 1e-4); ("epochs", Bo.Param.Int_value 15) ]
  in
  let b = Evaluator.evaluate (Rng.create 9) platform spec Model_spec.Svm svm_config in
  Alcotest.(check bool) "svm learns" true (b.Evaluator.objective > 0.85)

let test_evaluator_kmeans_vmeasure () =
  let platform = Platform.taurus () in
  let spec = cluster_spec () in
  let config = Bo.Config.make [ ("k", Bo.Param.Int_value 2) ] in
  let a = Evaluator.evaluate (Rng.create 10) platform spec Model_spec.Kmeans config in
  Alcotest.(check bool) "clusters align with blobs" true (a.Evaluator.objective > 0.7)

let test_evaluator_bo_metadata () =
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let space = Space_builder.build platform Model_spec.Dnn ~input_dim:2 in
  let a =
    Evaluator.evaluate (Rng.create 11) platform spec Model_spec.Dnn
      (sample_config space)
  in
  let e = Evaluator.to_bo_evaluation a in
  Alcotest.(check bool) "params metadata" true (List.mem_assoc "params" e.Bo.Optimizer.metadata);
  Alcotest.(check bool) "CU metadata" true (List.mem_assoc "CU" e.Bo.Optimizer.metadata);
  Alcotest.(check (float 0.)) "objective copied" a.Evaluator.objective
    e.Bo.Optimizer.objective

(* Fusion *)

let named_spec name features seed =
  Model_spec.make ~name
    ~loader:(fun () ->
      let rng = Rng.create seed in
      let n = 60 in
      let x =
        Array.init n (fun i ->
            Array.init (Array.length features) (fun _ ->
                Rng.gaussian rng ~mu:(if i mod 2 = 0 then -2. else 2.) ()))
      in
      let y = Array.init n (fun i -> i mod 2) in
      let mk () = Dataset.create ~feature_names:features ~x ~y ~n_classes:2 () in
      Model_spec.data ~train:(mk ()) ~test:(mk ()))
    ()

let test_feature_overlap () =
  let a = named_spec "a" [| "x"; "y"; "z" |] 1 in
  let b = named_spec "b" [| "y"; "z"; "w" |] 2 in
  Alcotest.(check (float 1e-9)) "jaccard 2/4" 0.5 (Fusion.feature_overlap a b);
  let c = named_spec "c" [| "p"; "q" |] 3 in
  Alcotest.(check (float 1e-9)) "disjoint" 0. (Fusion.feature_overlap a c)

let test_can_fuse () =
  let a = named_spec "a" [| "x"; "y"; "z" |] 1 in
  let b = named_spec "b" [| "x"; "y"; "w" |] 2 in
  Alcotest.(check bool) "overlapping" true (Fusion.can_fuse a b);
  let c = named_spec "c" [| "p"; "q" |] 3 in
  Alcotest.(check bool) "disjoint" false (Fusion.can_fuse a c)

let test_fuse_union_schema () =
  let a = named_spec "a" [| "x"; "y" |] 1 in
  let b = named_spec "b" [| "y"; "z" |] 2 in
  let fused = Fusion.fuse ~name:"ab" a b in
  let data = Model_spec.load fused in
  Alcotest.(check (array string)) "union schema" [| "x"; "y"; "z" |]
    data.Model_spec.train.Dataset.feature_names;
  (* Pooled samples from both sources. *)
  Alcotest.(check int) "pooled train" 120 (Dataset.n_samples data.Model_spec.train)

let test_fuse_fills_missing_with_zero () =
  let a = named_spec "a" [| "x" |] 1 in
  let b = named_spec "b" [| "x"; "z" |] 2 in
  let fused = Fusion.fuse ~name:"ab" a b in
  let data = Model_spec.load fused in
  (* Rows originating from [a] have z = 0. *)
  let da = Model_spec.load a in
  let n_a = Dataset.n_samples da.Model_spec.train in
  let z_col = Option.get (Dataset.feature_index data.Model_spec.train "z") in
  let all_zero = ref true in
  for i = 0 to n_a - 1 do
    if data.Model_spec.train.Dataset.x.(i).(z_col) <> 0. then all_zero := false
  done;
  Alcotest.(check bool) "a-rows have zero z" true !all_zero

(* Compiler *)

let test_search_model_feasible_result () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  Alcotest.(check bool) "feasible" true
    r.Compiler.artifact.Evaluator.verdict.Resource.feasible;
  Alcotest.(check bool) "good objective" true
    (r.Compiler.artifact.Evaluator.objective > 0.8);
  Alcotest.(check int) "one algorithm searched" 1 (List.length r.Compiler.histories);
  Alcotest.(check bool) "code emitted" true (r.Compiler.code <> None)

let test_search_model_budget_split () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree; Model_spec.Svm ] ())
  in
  Alcotest.(check int) "two searches" 2 (List.length r.Compiler.histories);
  List.iter
    (fun (_, h) ->
      (* n_iter 3 split over 2 algorithms -> 3 init + 1 guided each. *)
      Alcotest.(check int) "per-algorithm budget" 4 (Bo.History.length h))
    r.Compiler.histories

let test_search_model_no_candidates () =
  (* V-measure spec restricted to DNN: metric filter leaves nothing. *)
  let bad =
    Model_spec.make ~name:"impossible" ~metric:Model_spec.V_measure
      ~algorithms:[ Model_spec.Dnn ]
      ~loader:(fun () ->
        Model_spec.data ~train:(blob_dataset 1 30) ~test:(blob_dataset 2 20))
      ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Compiler.search_model ~options:tiny_options (Platform.taurus ()) bad);
       false
     with Compiler.No_feasible_model _ -> true)

let test_generate_schedule_dedup () =
  let spec = blob_spec ~algorithms:[ Model_spec.Tree ] () in
  let chain = Schedule.(model spec >>> model spec >>> model spec) in
  let r = Compiler.generate ~options:tiny_options (Platform.taurus ()) chain in
  Alcotest.(check int) "searched once" 1 (List.length r.Compiler.models);
  Alcotest.(check int) "three verdicts combined" 3
    (List.length r.Compiler.combined.Schedule.per_model)

let test_generate_fusion_pass () =
  let a = named_spec "fa" [| "x"; "y" |] 5 in
  let b = named_spec "fb" [| "x"; "y" |] 6 in
  let options = { tiny_options with Compiler.fusion_threshold = Some 0.5 } in
  let r =
    Compiler.generate ~options (Platform.taurus ())
      Schedule.(model a ||| model b)
  in
  (* The parallel pair fuses into a single searched model. *)
  Alcotest.(check int) "one fused model" 1 (List.length r.Compiler.models);
  Alcotest.(check string) "fused name" "fa+fb"
    (Model_spec.name (List.hd r.Compiler.models).Compiler.spec)

let test_generate_without_fusion_keeps_two () =
  let a = named_spec "ga" [| "x"; "y" |] 7 in
  let b = named_spec "gb" [| "x"; "y" |] 8 in
  let r =
    Compiler.generate ~options:tiny_options (Platform.taurus ())
      Schedule.(model a ||| model b)
  in
  Alcotest.(check int) "two models" 2 (List.length r.Compiler.models)

let test_emit_code_dispatch () =
  let km = Model_ir.Kmeans { name = "k"; centroids = Array.make_matrix 3 4 0.1 } in
  let spatial = Compiler.emit_code (Platform.taurus ()) km in
  let p4 = Compiler.emit_code (Platform.tofino ()) km in
  let has code sub =
    let n = String.length code and m = String.length sub in
    let rec go i = i + m <= n && (String.sub code i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "spatial" true (has spatial "Accel {");
  Alcotest.(check bool) "p4 program" true (has p4 "control Ingress");
  Alcotest.(check bool) "p4 entries appended" true (has p4 "table_add")

(* Report *)

let test_search_tradeoff_front () =
  let points =
    Compiler.search_tradeoff ~options:tiny_options ~n_scalarizations:3
      (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  Alcotest.(check bool) "non-empty front" true (points <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "feasible" true
        p.Compiler.artifact.Evaluator.verdict.Resource.feasible;
      Alcotest.(check bool) "fraction sane" true
        (p.Compiler.resource_fraction >= 0. && p.Compiler.resource_fraction <= 1.))
    points;
  (* Sorted by descending objective; resources must then be ascending or the
     point would be dominated. *)
  let rec check_pareto = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "objective descending" true
          (a.Compiler.artifact.Evaluator.objective
          >= b.Compiler.artifact.Evaluator.objective);
        Alcotest.(check bool) "resources not dominated" true
          (a.Compiler.resource_fraction >= b.Compiler.resource_fraction);
        check_pareto rest
    | [ _ ] | [] -> ()
  in
  check_pareto points

let test_evaluator_deterministic_per_config () =
  (* The compiler derives a per-config seed, so re-proposals measure the
     same; the evaluator itself must be a pure function of its rng. *)
  let platform = Platform.taurus () in
  let spec = blob_spec () in
  let config =
    Bo.Config.make
      [ ("max_depth", Bo.Param.Int_value 5); ("min_samples_leaf", Bo.Param.Int_value 2) ]
  in
  let a = Evaluator.evaluate (Rng.create 42) platform spec Model_spec.Tree config in
  let b = Evaluator.evaluate (Rng.create 42) platform spec Model_spec.Tree config in
  Alcotest.(check (float 0.)) "same objective" a.Evaluator.objective
    b.Evaluator.objective

(* Regression: an entry whose objective came back NaN (degenerate metric)
   must rank strictly below every real-valued entry — feasible or not — and
   must never displace an incumbent through the running-best fold. *)
let test_compare_entries_nan_ranks_last () =
  let config =
    Bo.Config.make
      [ ("max_depth", Bo.Param.Int_value 5); ("min_samples_leaf", Bo.Param.Int_value 2) ]
  in
  let history = Bo.History.create () in
  Bo.History.add history ~config ~objective:0.8 ~feasible:true ();
  Bo.History.add history ~config ~objective:Float.nan ~feasible:true ();
  let real, nan_entry =
    match Bo.History.entries history with
    | [ real; nan_entry ] -> (real, nan_entry)
    | _ -> Alcotest.fail "history lost an entry"
  in
  Alcotest.(check bool) "real beats NaN" true
    (Bo.History.compare_entries real nan_entry < 0);
  Alcotest.(check bool) "NaN loses to real" true
    (Bo.History.compare_entries nan_entry real > 0);
  Alcotest.(check int) "NaN ties itself" 0
    (Bo.History.compare_entries nan_entry nan_entry);
  (* The fold every winner is picked with. *)
  (match Bo.History.best_entry history with
  | Some kept ->
      Alcotest.(check bool) "incumbent survives NaN challenger" true
        (Int64.bits_of_float kept.Bo.History.objective
        = Int64.bits_of_float real.Bo.History.objective)
  | None -> Alcotest.fail "fold dropped the incumbent");
  let nan_first = Bo.History.create () in
  Bo.History.add nan_first ~config ~objective:Float.nan ~feasible:true ();
  Bo.History.add nan_first ~config ~objective:0.8 ~feasible:true ();
  match Bo.History.best_entry nan_first with
  | Some kept ->
      Alcotest.(check bool) "real displaces NaN incumbent" true
        (not (Float.is_nan kept.Bo.History.objective))
  | None -> Alcotest.fail "fold dropped both"

let test_report_rendering () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  let row = Report.model_row r in
  Alcotest.(check bool) "row mentions model" true
    (String.length row > 10 && String.sub row 0 5 = "blobs");
  let summary = Report.verdict_summary r.Compiler.artifact.Evaluator.verdict in
  Alcotest.(check bool) "summary mentions feasibility" true
    (String.length summary > 0);
  let regret = Report.render_regret r.Compiler.history in
  Alcotest.(check bool) "plot non-empty" true (String.length regret > 50)

let test_report_regret_series_monotone () =
  let r =
    Compiler.search_model ~options:tiny_options (Platform.taurus ())
      (blob_spec ~algorithms:[ Model_spec.Tree ] ())
  in
  let series = Report.regret_series r.Compiler.history in
  let ok = ref true in
  for i = 1 to Array.length series - 1 do
    if snd series.(i) < snd series.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok

(* Golden search pins. Every other determinism test compares two runs of
   one build, so none of them notices when every run changes the same way.
   These digests were recorded with the boxed-pair split search that
   preceded the columnar one; a search whose candidate trees, random-forest
   surrogate or feasibility model visit tied values in another order, or
   round a sum differently, records another history. The tree search trains
   CART candidates and moves when the classifier breaks a score tie
   differently; the DNN search reaches trees only through the forests, and
   moves when the regressor sums tied targets in another order. *)
let history_digest history =
  Bo.History.entries history
  |> List.map (fun (e : Bo.History.entry) ->
         Printf.sprintf "%s|%h|%b|%b"
           (Bo.Config.to_string e.Bo.History.config)
           e.Bo.History.objective e.Bo.History.feasible e.Bo.History.pruned)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let distinct_configs history =
  List.length
    (List.sort_uniq compare
       (List.map
          (fun (e : Bo.History.entry) -> Bo.Config.to_string e.Bo.History.config)
          (Bo.History.entries history)))

let pinned_search ~name ~algorithm ~data ~n_init ~budget platform =
  let spec =
    Model_spec.make ~name ~metric:Model_spec.F1 ~algorithms:[ algorithm ]
      ~loader:(fun () ->
        let train, test = data () in
        Model_spec.data ~train ~test)
      ()
  in
  let options =
    {
      Compiler.default_options with
      Compiler.seed = 2023;
      bo_settings =
        {
          Bo.Optimizer.default_settings with
          Bo.Optimizer.n_init;
          n_iter = budget - n_init;
          batch_size = 2;
        };
      emit_code = false;
    }
  in
  (spec, options, platform)

let tree_search ~n_init ~budget =
  pinned_search ~name:"traffic_classification" ~algorithm:Model_spec.Tree
    ~data:(fun () ->
      ( Homunculus_netdata.Iot.generate (Rng.create 7) ~n:300 (),
        Homunculus_netdata.Iot.generate (Rng.create 8) ~n:150 () ))
    ~n_init ~budget (Platform.tofino ())

let golden_tree () = tree_search ~n_init:10 ~budget:40

let golden_dnn () =
  pinned_search ~name:"anomaly_detection" ~algorithm:Model_spec.Dnn
    ~data:(fun () ->
      Homunculus_netdata.Nslkdd.generate_split (Rng.create 7) ~n_train:300
        ~n_test:150 ())
    ~n_init:4 ~budget:16 (Platform.taurus ())

let golden_digest (spec, options, platform) =
  history_digest (Compiler.search_model ~options platform spec).Compiler.history

let test_golden_tree_search () =
  Alcotest.(check string) "history digest" "43b731508f38e42c68c14bd486e05655"
    (golden_digest (golden_tree ()))

let test_golden_dnn_search () =
  Alcotest.(check string) "history digest" "f77f495102b3af39ee52a0157a72a15a"
    (golden_digest (golden_dnn ()))

(* The same pin at the compile_tree benchmark's shape: the TC tree space on
   Tofino holds 144 configurations, so a 300-evaluation search exhausts it
   about halfway and spends its second half in rounds whose candidate pools
   hold only evaluated configurations. Recorded with surrogate pairs built
   eagerly at every refit. *)
let test_exhausted_tree_search () =
  let spec, options, platform = tree_search ~n_init:75 ~budget:300 in
  let history = (Compiler.search_model ~options platform spec).Compiler.history in
  Alcotest.(check int) "budget spent" 300 (Bo.History.length history);
  Alcotest.(check int) "space exhausted" 144 (distinct_configs history);
  Alcotest.(check string) "history digest" "e37f9bdcd0ee6d241fd5e1a4de15caf2"
    (history_digest history)

(* Repeats the exhausted pin above does not reach. With batches of three,
   the exhausted space's proposals repeat each other inside one batch. With
   the learned pre-filter on a six-table Tofino, where some trees no longer
   fit, configurations the filter skipped are proposed again and judged
   again. Both digests and the filter's counters were recorded with a
   driver that trained every proposal, repeats included. *)
let test_exhausted_tree_search_batch3 () =
  let spec, options, platform = tree_search ~n_init:75 ~budget:300 in
  let options =
    {
      options with
      Compiler.bo_settings =
        { options.Compiler.bo_settings with Bo.Optimizer.batch_size = 3 };
    }
  in
  Evaluator.Timing.reset ();
  let history = (Compiler.search_model ~options platform spec).Compiler.history in
  let entries = Array.of_list (Bo.History.entries history) in
  let same_batch_repeats = ref 0 in
  Array.iteri
    (fun i (e : Bo.History.entry) ->
      for j = i - (i mod 3) to i - 1 do
        if Bo.Config.equal entries.(j).Bo.History.config e.Bo.History.config
        then incr same_batch_repeats
      done)
    entries;
  Alcotest.(check bool) "same-batch repeats" true (!same_batch_repeats > 0);
  Alcotest.(check int) "one evaluation per distinct configuration"
    (distinct_configs history)
    (Evaluator.Timing.snapshot ()).Evaluator.Timing.evaluations;
  Alcotest.(check string) "history digest" "61ed1c9094565cd184b7e3965e7fd159"
    (history_digest history)

let test_exhausted_tree_search_cost_model () =
  let spec, options, _ = tree_search ~n_init:75 ~budget:300 in
  let options =
    { options with Compiler.cost_model = Some Bo.Cost_model.default_settings }
  in
  let r =
    Compiler.search_model ~options
      (Platform.with_tables (Platform.tofino ()) 6)
      spec
  in
  let predicted = ref [] and repeats_of_predicted = ref 0 in
  List.iter
    (fun (e : Bo.History.entry) ->
      if List.exists (Bo.Config.equal e.Bo.History.config) !predicted then
        incr repeats_of_predicted;
      if Bo.Cost_model.is_predicted e.Bo.History.metadata then
        predicted := e.Bo.History.config :: !predicted)
    (Bo.History.entries r.Compiler.history);
  Alcotest.(check bool) "predicted entries proposed again" true
    (!repeats_of_predicted > 0);
  Alcotest.(check string) "filter counters"
    "281 observations, 300 consults, 19 skipped, 24 boundary fallbacks, 107 \
     winner-guarded, 68 refits"
    (Bo.Cost_model.stats_summary (Option.get r.Compiler.cost_stats));
  Alcotest.(check string) "history digest" "bc2478fb65c466ef15faa3ba3780fe74"
    (history_digest r.Compiler.history)

(* One winner path: a plain search keeps the artifact of its best history
   entry as batches are committed, and trains each distinct configuration
   once — a repeat commits the earlier evaluation, and the winner is never
   trained again. Replaying the search's own journal through a supervisor
   evaluates nothing but visits every history entry, so there the winner
   is rebuilt from its config, and must come back the same. *)
module Journal = Homunculus_resilience.Journal
module Supervisor = Homunculus_resilience.Supervisor

let check_golden_winner (spec, options, platform) =
  Evaluator.Timing.reset ();
  let r = Compiler.search_model ~options platform spec in
  let entries =
    List.fold_left
      (fun acc (_, h) -> acc + Bo.History.length h)
      0 r.Compiler.histories
  in
  let distinct =
    List.fold_left
      (fun acc (_, h) -> acc + distinct_configs h)
      0 r.Compiler.histories
  in
  Alcotest.(check int) "one evaluation per distinct configuration" distinct
    (Evaluator.Timing.snapshot ()).Evaluator.Timing.evaluations;
  let path = Filename.temp_file "golden-journal" ".jsonl" in
  let journal = Journal.open_ path in
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
  let replayed =
    Compiler.search_model
      ~options:{ options with Compiler.supervisor = Some supervisor }
      platform spec
  in
  Sys.remove path;
  Alcotest.(check int) "every candidate replayed" entries
    (Supervisor.replayed_count supervisor);
  let a = r.Compiler.artifact and b = replayed.Compiler.artifact in
  Alcotest.(check string) "same winner config"
    (Bo.Config.to_string a.Evaluator.config)
    (Bo.Config.to_string b.Evaluator.config);
  Alcotest.(check int64) "same winner objective bits"
    (Int64.bits_of_float a.Evaluator.objective)
    (Int64.bits_of_float b.Evaluator.objective)

let test_golden_tree_winner () = check_golden_winner (golden_tree ())
let test_golden_dnn_winner () = check_golden_winner (golden_dnn ())

(* Repeats inside one batch of configurations not evaluated yet: three
   cluster counts fill a warm-up batch of six, so the batch proposes some
   of them twice. *)
let same_batch_search () =
  let options =
    {
      tiny_options with
      Compiler.bo_settings =
        {
          tiny_options.Compiler.bo_settings with
          Bo.Optimizer.n_init = 6;
          n_iter = 1;
          batch_size = 6;
        };
      emit_code = false;
    }
  in
  (cluster_spec (), options, Platform.with_tables (Platform.tofino ()) 3)

(* Only the first copy trains, and the history is the one a supervised
   search, which trains every copy, records. *)
let test_same_batch_repeats_trained_once () =
  let spec, options, platform = same_batch_search () in
  Evaluator.Timing.reset ();
  let r = Compiler.search_model ~options platform spec in
  let distinct = distinct_configs r.Compiler.history in
  Alcotest.(check bool) "the warm-up batch repeats itself" true (distinct < 6);
  Alcotest.(check int) "one evaluation per distinct configuration" distinct
    (Evaluator.Timing.snapshot ()).Evaluator.Timing.evaluations;
  let supervised =
    Compiler.search_model
      ~options:{ options with Compiler.supervisor = Some (Supervisor.create ()) }
      platform spec
  in
  Alcotest.(check string) "history of the search that trains every copy"
    (history_digest supervised.Compiler.history)
    (history_digest r.Compiler.history)

(* A fleet skips repeats too, but never reuses a failure: a worker's
   failure-tagged result says nothing of the configuration, so the next
   copy — in the same batch or a later one — is dispatched again. Proposal
   0 fails here; every other proposal is dispatched exactly when no earlier
   entry holds an exact evaluation of its configuration. *)
let test_dispatch_skips_exact_repeats () =
  let spec, options, platform = same_batch_search () in
  let dispatched = ref [] in
  let dispatch ~scope batch =
    Array.map
      (fun (index, config) ->
        dispatched := index :: !dispatched;
        if index = 0 then
          {
            Bo.Optimizer.objective = 0.;
            feasible = false;
            pruned = false;
            metadata = [ (Supervisor.failure_key, 1.) ];
          }
        else
          Compiler.worker_eval ~options ~platform ~specs:[ spec ] ~scope ~index
            ~config)
      batch
  in
  let r =
    Compiler.search_model
      ~options:{ options with Compiler.dispatch = Some dispatch }
      platform spec
  in
  let entries = Bo.History.entries r.Compiler.history in
  let expected, _ =
    List.fold_left
      (fun (dispatched, exact) (e : Bo.History.entry) ->
        let config = e.Bo.History.config in
        ( (if List.exists (Bo.Config.equal config) exact then dispatched
           else (e.Bo.History.iteration - 1) :: dispatched),
          if List.mem_assoc Supervisor.failure_key e.Bo.History.metadata then
            exact
          else config :: exact ))
      ([], []) entries
  in
  let first = (List.hd entries).Bo.History.config in
  Alcotest.(check bool) "proposal 0 was proposed again" true
    (List.exists
       (fun (e : Bo.History.entry) ->
         e.Bo.History.iteration > 1 && Bo.Config.equal e.Bo.History.config first)
       entries);
  Alcotest.(check (list int)) "dispatched proposals" (List.rev expected)
    (List.sort compare !dispatched)

let test_exhausted_tree_winner () =
  check_golden_winner (tree_search ~n_init:75 ~budget:300)

let suite =
  [
    Alcotest.test_case "metric compatibility" `Quick test_metric_compatibility;
    Alcotest.test_case "platform compatibility" `Quick test_platform_compatibility;
    Alcotest.test_case "filter intersects" `Quick test_filter_intersects;
    Alcotest.test_case "filter clustering" `Quick test_filter_kmeans_for_clustering;
    Alcotest.test_case "dnn space contents" `Quick test_dnn_space_contents;
    Alcotest.test_case "width bound vs grid" `Quick test_width_bound_shrinks_with_grid;
    Alcotest.test_case "kmeans space budget" `Quick test_kmeans_space_tofino_budget;
    Alcotest.test_case "hidden layer decoding" `Quick test_hidden_layers_decoding;
    Alcotest.test_case "evaluator dnn artifact" `Quick test_evaluator_dnn_artifact;
    Alcotest.test_case "evaluator learns blobs" `Quick test_evaluator_learns_blobs;
    Alcotest.test_case "evaluator tree/svm" `Quick test_evaluator_tree_and_svm;
    Alcotest.test_case "evaluator kmeans" `Quick test_evaluator_kmeans_vmeasure;
    Alcotest.test_case "evaluator metadata" `Quick test_evaluator_bo_metadata;
    Alcotest.test_case "fusion overlap" `Quick test_feature_overlap;
    Alcotest.test_case "fusion can_fuse" `Quick test_can_fuse;
    Alcotest.test_case "fusion union schema" `Quick test_fuse_union_schema;
    Alcotest.test_case "fusion zero fill" `Quick test_fuse_fills_missing_with_zero;
    Alcotest.test_case "search model result" `Quick test_search_model_feasible_result;
    Alcotest.test_case "search budget split" `Quick test_search_model_budget_split;
    Alcotest.test_case "search no candidates" `Quick test_search_model_no_candidates;
    Alcotest.test_case "generate dedup" `Quick test_generate_schedule_dedup;
    Alcotest.test_case "generate fusion" `Quick test_generate_fusion_pass;
    Alcotest.test_case "generate no fusion" `Quick test_generate_without_fusion_keeps_two;
    Alcotest.test_case "emit code dispatch" `Quick test_emit_code_dispatch;
    Alcotest.test_case "tradeoff pareto front" `Quick test_search_tradeoff_front;
    Alcotest.test_case "compare_entries NaN ranks last" `Quick
      test_compare_entries_nan_ranks_last;
    Alcotest.test_case "evaluator deterministic" `Quick
      test_evaluator_deterministic_per_config;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "report regret monotone" `Quick test_report_regret_series_monotone;
    Alcotest.test_case "golden tree search" `Quick test_golden_tree_search;
    Alcotest.test_case "golden dnn search" `Quick test_golden_dnn_search;
    Alcotest.test_case "exhausted tree search" `Quick test_exhausted_tree_search;
    Alcotest.test_case "golden tree winner not retrained" `Quick
      test_golden_tree_winner;
    Alcotest.test_case "golden dnn winner not retrained" `Quick
      test_golden_dnn_winner;
    Alcotest.test_case "exhausted tree search, batches of 3" `Quick
      test_exhausted_tree_search_batch3;
    Alcotest.test_case "exhausted tree search, cost model" `Quick
      test_exhausted_tree_search_cost_model;
    Alcotest.test_case "exhausted tree winner not retrained" `Quick
      test_exhausted_tree_winner;
    Alcotest.test_case "same-batch repeats trained once" `Quick
      test_same_batch_repeats_trained_once;
    Alcotest.test_case "dispatch skips exact repeats" `Quick
      test_dispatch_skips_exact_repeats;
  ]
