(* Bechamel micro-benchmarks: one per reproduced table/figure, timing the
   hot path that experiment exercises, plus the code generators. *)

open Bechamel
open Toolkit
module Rng = Homunculus_util.Rng
module Ml = Homunculus_ml
module Bo = Homunculus_bo
open Homunculus_backends
open Homunculus_alchemy

let dnn_layer n_in n_out activation =
  {
    Model_ir.n_in;
    n_out;
    activation;
    weights = Array.make_matrix n_out n_in 0.1;
    biases = Array.make n_out 0.;
  }

let ad_dnn =
  Model_ir.Dnn
    {
      name = "ad";
      layers = [| dnn_layer 7 12 "relu"; dnn_layer 12 8 "relu"; dnn_layer 8 2 "linear" |];
    }

let kmeans5 = Model_ir.Kmeans { name = "tc"; centroids = Array.make_matrix 5 7 0.5 }

(* Table 2 hot path: one mini-batch training step of the AD-sized MLP. *)
let bench_train_step =
  let rng = Rng.create 1 in
  let mlp = Ml.Mlp.create rng ~input_dim:7 ~hidden:[| 12; 8 |] ~output_dim:2 () in
  let x = Array.init 32 (fun _ -> Array.init 7 (fun _ -> Rng.float rng 1.)) in
  let t = Array.init 32 (fun i -> Ml.Dataset.one_hot ~n_classes:2 (i mod 2)) in
  Test.make ~name:"table2/mlp-batch-step"
    (Staged.stage (fun () ->
         Ml.Mlp.zero_grads mlp;
         for i = 0 to 31 do
           ignore (Ml.Mlp.train_sample mlp ~x:x.(i) ~target:t.(i))
         done;
         Ml.Mlp.scale_grads mlp (1. /. 32.)))

(* Table 3 hot path: folding a 4-model schedule's resource verdict. *)
let bench_schedule_combine =
  let spec =
    Model_spec.make ~name:"m"
      ~loader:(fun () ->
        let d =
          Ml.Dataset.create ~x:[| [| 0. |]; [| 1. |] |] ~y:[| 0; 1 |] ~n_classes:2 ()
        in
        Model_spec.data ~train:d ~test:d)
      ()
  in
  let m = Schedule.model spec in
  let schedule = Schedule.(m >>> (m ||| m) >>> m) in
  let verdict = Taurus.estimate Taurus.default_grid Resource.line_rate ad_dnn in
  Test.make ~name:"table3/schedule-combine"
    (Staged.stage (fun () ->
         ignore
           (Schedule.combine schedule ~perf:Resource.line_rate
              ~estimate:(fun _ -> verdict))))

(* Table 4 hot path: the feature-overlap test driving fusion decisions. *)
let bench_fusion_overlap =
  let mk name seed =
    Model_spec.make ~name
      ~loader:(fun () ->
        let rng = Rng.create seed in
        let x = Array.init 64 (fun _ -> Array.init 7 (fun _ -> Rng.float rng 1.)) in
        let y = Array.init 64 (fun i -> i mod 2) in
        let d = Ml.Dataset.create ~x ~y ~n_classes:2 () in
        Model_spec.data ~train:d ~test:d)
      ()
  in
  let a = mk "a" 1 and b = mk "b" 2 in
  let _ = Homunculus_core.Fusion.feature_overlap a b in
  Test.make ~name:"table4/fusion-overlap"
    (Staged.stage (fun () -> ignore (Homunculus_core.Fusion.feature_overlap a b)))

(* Table 5 hot path: the FPGA resource/power estimate. *)
let bench_fpga_estimate =
  Test.make ~name:"table5/fpga-report"
    (Staged.stage (fun () -> ignore (Fpga.report Fpga.alveo_u250 ad_dnn)))

(* Figure 4 hot path: one surrogate fit + EI scoring over a candidate pool. *)
let bench_bo_iteration =
  let rng = Rng.create 2 in
  let x = Array.init 40 (fun _ -> Array.init 5 (fun _ -> Rng.float rng 1.)) in
  let y = Array.map (fun row -> row.(0) +. row.(1)) x in
  Test.make ~name:"fig4/surrogate-fit-and-score"
    (Staged.stage (fun () ->
         let rng' = Rng.copy rng in
         let s = Bo.Surrogate.fit rng' ~n_trees:15 ~x ~y () in
         for _ = 1 to 50 do
           let p = Array.init 5 (fun _ -> Rng.float rng' 1.) in
           let mean, std = Bo.Surrogate.predict s p in
           ignore (Bo.Acquisition.expected_improvement ~mean ~std ~best:1.2)
         done))

(* Figure 6 hot path: per-packet partial flowmarker computation. *)
let bench_flowmarker =
  let rng = Rng.create 3 in
  let flow = Homunculus_netdata.Flowsim.generate_flow rng ~id:0 ~app:"storm" () in
  Test.make ~name:"fig6/partial-flowmarker"
    (Staged.stage (fun () ->
         ignore
           (Homunculus_netdata.Botnet.flow_features Homunculus_netdata.Botnet.Fused
              flow ~first_packets:16 ())))

(* Figure 7 hot path: a full KMeans fit at the paper's scale. *)
let bench_kmeans_fit =
  let rng = Rng.create 4 in
  let x = Array.init 500 (fun _ -> Array.init 7 (fun _ -> Rng.float rng 1.)) in
  Test.make ~name:"fig7/kmeans-fit"
    (Staged.stage (fun () ->
         ignore (Ml.Kmeans.fit (Rng.copy rng) ~k:5 ~n_init:1 ~max_iter:20 x)))

(* CART split search, the kernel under tree search: every TC candidate is
   one classifier fit at the compile_tree data size, and every BO refit is
   one 30-tree regression forest. The forest runs on one domain so the
   figure is the kernel's own cost. *)
let bench_tree_classifier_fit =
  let d = Homunculus_netdata.Iot.generate (Rng.create 7) ~n:600 () in
  let params = { Ml.Decision_tree.default_params with Ml.Decision_tree.max_depth = 10 } in
  Test.make ~name:"ml/tree-classifier-fit-600x7-d10"
    (Staged.stage (fun () ->
         ignore
           (Ml.Decision_tree.Classifier.fit ~params ~x:d.Ml.Dataset.x ~y:d.Ml.Dataset.y
              ~n_classes:d.Ml.Dataset.n_classes ())))

let bench_forest_regressor_fit =
  let rng = Rng.create 5 in
  let x = Array.init 300 (fun _ -> [| Rng.float rng 1.; Rng.float rng 1. |]) in
  let y = Array.map (fun row -> sin (6. *. row.(0)) +. row.(1)) x in
  let pool = Homunculus_par.Par.create ~jobs:1 () in
  Test.make ~name:"ml/forest-regressor-fit-30x300x2"
    (Staged.stage (fun () ->
         ignore (Ml.Random_forest.Regressor.fit (Rng.copy rng) ~n_trees:30 ~pool ~x ~y ())))

(* One guided proposal on a 300-entry history shaped like compile_tree's:
   two integer tree parameters, batch 2, a 200-candidate pool, 30-tree
   surrogates on one domain. A proposal must be told before the next, so
   every sample gets its own optimizer, built outside the timed region by
   telling 300 warm-up proposals a synthetic objective (infeasible past
   depth 8); the timed proposal is then the first guided round, and always
   a refit. On the 144-configuration space compile_tree searches, 300
   entries exhaust it: no candidate is new and the round builds no forest.
   On the same parameters with wider ranges the pool still holds new
   configurations, and the round builds and queries both forests. Timed by
   hand, median of 15: bechamel runs a staged function many times on one
   resource. *)
let propose_guided_300 () =
  let pool = Homunculus_par.Par.create ~jobs:1 () in
  let settings =
    {
      Bo.Optimizer.default_settings with
      Bo.Optimizer.n_init = 300;
      n_iter = 2;
      batch_size = 2;
    }
  in
  let eval config =
    let depth = Bo.Config.get_int config "max_depth" in
    let leaf = Bo.Config.get_int config "min_samples_leaf" in
    {
      Bo.Optimizer.objective =
        1. -. (1. /. float_of_int depth) -. (0.005 *. float_of_int leaf);
      feasible = depth <= 8;
      pruned = false;
      metadata = [];
    }
  in
  let warmed space =
    let t = Bo.Optimizer.create (Rng.create 11) ~settings ~pool space in
    while Bo.History.length (Bo.Optimizer.history t) < settings.Bo.Optimizer.n_init do
      Bo.Optimizer.tell t (Array.map (fun (_, c) -> eval c) (Bo.Optimizer.propose t))
    done;
    t
  in
  let median_ns space =
    Homunculus_util.Stats.median
      (Array.init 15 (fun _ ->
           let t = warmed space in
           let t0 = Unix.gettimeofday () in
           ignore (Sys.opaque_identity (Bo.Optimizer.propose t));
           1e9 *. (Unix.gettimeofday () -. t0)))
  in
  let tree_space =
    Homunculus_core.Space_builder.build (Platform.tofino ()) Model_spec.Tree
      ~input_dim:7
  in
  let wide_space =
    Bo.Design_space.create
      [
        Bo.Param.int "max_depth" ~lo:2 ~hi:40;
        Bo.Param.int "min_samples_leaf" ~lo:1 ~hi:64;
      ]
  in
  List.iter
    (fun (name, space) ->
      Printf.printf "%-40s %12.1f ns/run\n"
        ("homunculus bo/propose-guided-300/" ^ name)
        (median_ns space))
    [ ("fresh-pool", wide_space); ("exhausted", tree_space) ];
  Homunculus_par.Par.shutdown pool

(* Backend generators. *)
let bench_spatial_codegen =
  Test.make ~name:"codegen/spatial-dnn"
    (Staged.stage (fun () -> ignore (Spatial.emit ad_dnn)))

let bench_p4_codegen =
  Test.make ~name:"codegen/p4-kmeans"
    (Staged.stage (fun () -> ignore (P4gen.emit kmeans5)))

let tests =
  [
    bench_train_step; bench_schedule_combine; bench_fusion_overlap;
    bench_fpga_estimate; bench_bo_iteration; bench_flowmarker;
    bench_kmeans_fit; bench_tree_classifier_fit; bench_forest_regressor_fit;
    bench_spatial_codegen; bench_p4_codegen;
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"homunculus" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let run () =
  Bench_config.section "Micro-benchmarks (Bechamel, monotonic clock)";
  let results = benchmark () in
  Hashtbl.iter
    (fun measure tbl ->
      if String.equal measure (Measure.label Instance.monotonic_clock) then
        Hashtbl.iter
          (fun name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
            | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
          tbl)
    results;
  propose_guided_300 ()
