(* KMeans, SVM, decision trees, random forests. *)
open Homunculus_ml
module Rng = Homunculus_util.Rng

let two_blobs rng n ~sep =
  Array.init (2 * n) (fun i ->
      let mu = if i < n then -.sep else sep in
      [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])

(* KMeans *)

let test_kmeans_recovers_blobs () =
  let rng = Rng.create 1 in
  let x = two_blobs rng 100 ~sep:6. in
  let km = Kmeans.fit rng ~k:2 x in
  let c = Kmeans.centroids km in
  let near v = Float.abs (Float.abs v -. 6.) < 1.0 in
  Alcotest.(check bool) "centroids near blob centers" true
    (near c.(0).(0) && near c.(1).(0))

let test_kmeans_separates_assignments () =
  let rng = Rng.create 2 in
  let x = two_blobs rng 80 ~sep:6. in
  let km = Kmeans.fit rng ~k:2 x in
  let pred = Kmeans.predict_all km x in
  let truth = Array.init 160 (fun i -> if i < 80 then 0 else 1) in
  Alcotest.(check bool) "v-measure ~ 1" true
    (Metrics.v_measure ~pred ~truth () > 0.9)

let test_kmeans_inertia_decreases_with_k () =
  let rng = Rng.create 3 in
  let x = two_blobs rng 60 ~sep:4. in
  let i2 = Kmeans.inertia (Kmeans.fit rng ~k:2 x) in
  let i6 = Kmeans.inertia (Kmeans.fit rng ~k:6 x) in
  Alcotest.(check bool) "more clusters, less inertia" true (i6 < i2)

let test_kmeans_rejects_bad_k () =
  let rng = Rng.create 4 in
  Alcotest.check_raises "k=0" (Invalid_argument "Kmeans.fit: k <= 0") (fun () ->
      ignore (Kmeans.fit rng ~k:0 [| [| 1. |] |]));
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Kmeans.fit: fewer samples than clusters") (fun () ->
      ignore (Kmeans.fit rng ~k:3 [| [| 1. |]; [| 2. |] |]))

let test_kmeans_predict_nearest () =
  let rng = Rng.create 5 in
  let x = [| [| 0. |]; [| 0.1 |]; [| 10. |]; [| 10.1 |] |] in
  let km = Kmeans.fit rng ~k:2 x in
  Alcotest.(check bool) "0 and 10 in different clusters" true
    (Kmeans.predict km [| 0. |] <> Kmeans.predict km [| 10. |]);
  Alcotest.(check int) "0 and 0.2 together"
    (Kmeans.predict km [| 0. |])
    (Kmeans.predict km [| 0.2 |])

let test_kmeans_merge_clusters () =
  let rng = Rng.create 6 in
  let x =
    Array.concat
      [
        two_blobs rng 30 ~sep:8.;
        Array.init 30 (fun _ -> [| Rng.gaussian rng ~mu:20. (); 0. |]);
      ]
  in
  let km = Kmeans.fit rng ~k:4 x in
  let merged = Kmeans.merge_clusters km ~into:2 in
  Alcotest.(check int) "two clusters" 2 (Kmeans.k merged);
  Alcotest.check_raises "bad target"
    (Invalid_argument "Kmeans.merge_clusters: bad target") (fun () ->
      ignore (Kmeans.merge_clusters km ~into:0))

let test_kmeans_merge_preserves_dim () =
  let rng = Rng.create 7 in
  let x = two_blobs rng 40 ~sep:5. in
  let km = Kmeans.fit rng ~k:4 x in
  let merged = Kmeans.merge_clusters km ~into:3 in
  Array.iter
    (fun c -> Alcotest.(check int) "dim 2" 2 (Array.length c))
    (Kmeans.centroids merged)

(* SVM *)

let test_svm_binary_separable () =
  let rng = Rng.create 8 in
  let x = two_blobs rng 100 ~sep:4. in
  let y = Array.init 200 (fun i -> if i < 100 then 0 else 1) in
  let m = Svm.fit_binary rng ~x ~y () in
  let pred = Array.map (Svm.predict_binary m) x in
  Alcotest.(check bool) "f1 > 0.95" true (Metrics.f1 ~pred ~truth:y () > 0.95)

let test_svm_margin_sign () =
  let rng = Rng.create 9 in
  let x = two_blobs rng 100 ~sep:4. in
  let y = Array.init 200 (fun i -> if i < 100 then 0 else 1) in
  let m = Svm.fit_binary rng ~x ~y () in
  Alcotest.(check bool) "positive side" true (Svm.decision m [| 8.; 8. |] > 0.);
  Alcotest.(check bool) "negative side" true (Svm.decision m [| -8.; -8. |] < 0.)

let test_svm_multiclass () =
  let rng = Rng.create 10 in
  let n = 60 in
  let x =
    Array.init (3 * n) (fun i ->
        let c = i / n in
        let mu = 6. *. float_of_int c in
        [| Rng.gaussian rng ~mu (); Rng.gaussian rng ~mu () |])
  in
  let y = Array.init (3 * n) (fun i -> i / n) in
  let d = Dataset.create ~x ~y ~n_classes:3 () in
  let m = Svm.fit rng d in
  let pred = Svm.predict_all m x in
  Alcotest.(check bool) "accuracy > 0.9" true (Metrics.accuracy ~pred ~truth:y > 0.9);
  Alcotest.(check int) "3 classes" 3 (Svm.n_classes m);
  Alcotest.(check int) "2 features" 2 (Svm.n_features m);
  Alcotest.(check int) "weights shape" 3 (Array.length (Svm.class_weights m));
  Alcotest.(check int) "biases shape" 3 (Array.length (Svm.class_biases m))

let test_svm_rejects_empty () =
  let rng = Rng.create 11 in
  Alcotest.check_raises "empty" (Invalid_argument "Svm.fit_binary: empty input")
    (fun () -> ignore (Svm.fit_binary rng ~x:[||] ~y:[||] ()))

(* Decision trees *)

let xor_data rng n =
  let x =
    Array.init n (fun _ ->
        [| Rng.uniform rng (-1.) 1.; Rng.uniform rng (-1.) 1. |])
  in
  let y = Array.map (fun r -> if r.(0) *. r.(1) > 0. then 1 else 0) x in
  (x, y)

let test_tree_learns_xor () =
  (* XOR defeats linear models; a depth-2+ tree nails it. *)
  let rng = Rng.create 12 in
  let x, y = xor_data rng 400 in
  let t = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  let pred = Decision_tree.Classifier.predict_all t x in
  Alcotest.(check bool) "accuracy > 0.95" true
    (Metrics.accuracy ~pred ~truth:y > 0.95)

let test_tree_max_depth_respected () =
  let rng = Rng.create 13 in
  let x, y = xor_data rng 200 in
  let params = { Decision_tree.default_params with Decision_tree.max_depth = 3 } in
  let t = Decision_tree.Classifier.fit ~params ~x ~y ~n_classes:2 () in
  Alcotest.(check bool) "depth <= 3" true
    (Decision_tree.depth (Decision_tree.Classifier.root t) <= 3)

let test_tree_pure_leaf_shortcut () =
  let x = [| [| 0. |]; [| 1. |]; [| 2. |] |] in
  let y = [| 1; 1; 1 |] in
  let t = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  Alcotest.(check int) "single leaf" 1
    (Decision_tree.n_leaves (Decision_tree.Classifier.root t))

let test_tree_proba_sums_to_one () =
  let rng = Rng.create 14 in
  let x, y = xor_data rng 100 in
  let t = Decision_tree.Classifier.fit ~x ~y ~n_classes:2 () in
  let p = Decision_tree.Classifier.predict_proba t [| 0.3; 0.3 |] in
  Alcotest.(check (float 1e-9)) "distribution" 1. (p.(0) +. p.(1))

let test_tree_node_counts () =
  let root =
    Decision_tree.Split
      {
        feature = 0;
        threshold = 0.;
        left = Decision_tree.Leaf { distribution = [| 1.; 0. |] };
        right =
          Decision_tree.Split
            {
              feature = 1;
              threshold = 1.;
              left = Decision_tree.Leaf { distribution = [| 0.; 1. |] };
              right = Decision_tree.Leaf { distribution = [| 0.; 1. |] };
            };
      }
  in
  Alcotest.(check int) "depth" 2 (Decision_tree.depth root);
  Alcotest.(check int) "leaves" 3 (Decision_tree.n_leaves root);
  Alcotest.(check int) "nodes" 5 (Decision_tree.n_nodes root)

let test_tree_regressor_fits_step () =
  let x = Array.init 100 (fun i -> [| float_of_int i |]) in
  let y = Array.init 100 (fun i -> if i < 50 then 1. else 5. ) in
  let t = Decision_tree.Regressor.fit ~x ~y () in
  Alcotest.(check (float 0.2)) "left" 1. (Decision_tree.Regressor.predict t [| 10. |]);
  Alcotest.(check (float 0.2)) "right" 5. (Decision_tree.Regressor.predict t [| 90. |])

let test_tree_min_samples_leaf () =
  let rng = Rng.create 15 in
  let x, y = xor_data rng 64 in
  let params =
    { Decision_tree.default_params with Decision_tree.min_samples_leaf = 16 }
  in
  let t = Decision_tree.Classifier.fit ~params ~x ~y ~n_classes:2 () in
  (* 64 samples with min leaf 16 cannot have more than 4 leaves. *)
  Alcotest.(check bool) "few leaves" true
    (Decision_tree.n_leaves (Decision_tree.Classifier.root t) <= 4)

(* Random forest *)

let test_forest_classifier_beats_noise () =
  let rng = Rng.create 16 in
  let x, y = xor_data rng 300 in
  let f = Random_forest.Classifier.fit rng ~n_trees:15 ~x ~y ~n_classes:2 () in
  let pred = Random_forest.Classifier.predict_all f x in
  Alcotest.(check bool) "accuracy > 0.9" true (Metrics.accuracy ~pred ~truth:y > 0.9);
  Alcotest.(check int) "n_trees" 15 (Random_forest.Classifier.n_trees f)

let test_forest_proba_distribution () =
  let rng = Rng.create 17 in
  let x, y = xor_data rng 100 in
  let f = Random_forest.Classifier.fit rng ~n_trees:7 ~x ~y ~n_classes:2 () in
  let p = Random_forest.Classifier.predict_proba f [| 0.5; 0.5 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (p.(0) +. p.(1))

let test_forest_regressor_interpolates () =
  let rng = Rng.create 18 in
  let x = Array.init 200 (fun i -> [| float_of_int i /. 20. |]) in
  let y = Array.map (fun r -> sin r.(0)) x in
  let f = Random_forest.Regressor.fit rng ~n_trees:20 ~x ~y () in
  let err = Float.abs (Random_forest.Regressor.predict f [| 3. |] -. sin 3.) in
  Alcotest.(check bool) "close to sin" true (err < 0.2)

let test_forest_regressor_uncertainty () =
  let rng = Rng.create 19 in
  let x = Array.init 100 (fun i -> [| float_of_int i |]) in
  let y = Array.map (fun r -> r.(0)) x in
  let f = Random_forest.Regressor.fit rng ~n_trees:10 ~x ~y () in
  let _, std_in = Random_forest.Regressor.predict_with_std f [| 50. |] in
  let _, std_out = Random_forest.Regressor.predict_with_std f [| 500. |] in
  Alcotest.(check bool) "std non-negative" true (std_in >= 0. && std_out >= 0.)

let test_forest_deterministic_given_seed () =
  let x = Array.init 50 (fun i -> [| float_of_int i |]) in
  let y = Array.init 50 (fun i -> i mod 2) in
  let f1 = Random_forest.Classifier.fit (Rng.create 7) ~n_trees:5 ~x ~y ~n_classes:2 () in
  let f2 = Random_forest.Classifier.fit (Rng.create 7) ~n_trees:5 ~x ~y ~n_classes:2 () in
  let p1 = Array.map (Random_forest.Classifier.predict f1) x in
  let p2 = Array.map (Random_forest.Classifier.predict f2) x in
  Alcotest.(check (array int)) "same predictions" p1 p2

(* A deferred fit splits its per-tree streams off the caller's generator at
   the call, as [fit] does, so the caller's stream is left exactly where an
   eager fit leaves it, and draws made before the force do not reach the
   trees. *)
let test_forest_deferred_fit_matches_eager () =
  let x = Array.init 60 (fun i -> [| float_of_int i /. 6.; float_of_int (i mod 7) |]) in
  let y = Array.map (fun r -> sin r.(0) +. r.(1)) x in
  let labels = Array.map (fun r -> if r.(1) > 3. then 1 else 0) x in
  let eager_rng = Rng.create 21 and deferred_rng = Rng.create 21 in
  let reg = Random_forest.Regressor.fit eager_rng ~n_trees:6 ~x ~y () in
  let cls = Random_forest.Classifier.fit eager_rng ~n_trees:6 ~x ~y:labels ~n_classes:2 () in
  let reg' = Random_forest.Regressor.fit_deferred deferred_rng ~n_trees:6 ~x ~y () in
  let cls' =
    Random_forest.Classifier.fit_deferred deferred_rng ~n_trees:6 ~x ~y:labels
      ~n_classes:2 ()
  in
  Alcotest.(check int64) "caller's stream left in step" (Rng.int64 eager_rng)
    (Rng.int64 deferred_rng);
  let reg' = Lazy.force reg' and cls' = Lazy.force cls' in
  Array.iter
    (fun point ->
      Alcotest.(check (pair (float 0.) (float 0.))) "same regressor"
        (Random_forest.Regressor.predict_with_std reg point)
        (Random_forest.Regressor.predict_with_std reg' point);
      Alcotest.(check (array (float 0.))) "same classifier"
        (Random_forest.Classifier.predict_proba cls point)
        (Random_forest.Classifier.predict_proba cls' point))
    x

let suite =
  [
    Alcotest.test_case "kmeans recovers blobs" `Quick test_kmeans_recovers_blobs;
    Alcotest.test_case "kmeans separates" `Quick test_kmeans_separates_assignments;
    Alcotest.test_case "kmeans inertia vs k" `Quick test_kmeans_inertia_decreases_with_k;
    Alcotest.test_case "kmeans rejects bad k" `Quick test_kmeans_rejects_bad_k;
    Alcotest.test_case "kmeans predict nearest" `Quick test_kmeans_predict_nearest;
    Alcotest.test_case "kmeans merge clusters" `Quick test_kmeans_merge_clusters;
    Alcotest.test_case "kmeans merge dims" `Quick test_kmeans_merge_preserves_dim;
    Alcotest.test_case "svm binary separable" `Quick test_svm_binary_separable;
    Alcotest.test_case "svm margin sign" `Quick test_svm_margin_sign;
    Alcotest.test_case "svm multiclass" `Quick test_svm_multiclass;
    Alcotest.test_case "svm rejects empty" `Quick test_svm_rejects_empty;
    Alcotest.test_case "tree learns xor" `Quick test_tree_learns_xor;
    Alcotest.test_case "tree max depth" `Quick test_tree_max_depth_respected;
    Alcotest.test_case "tree pure leaf" `Quick test_tree_pure_leaf_shortcut;
    Alcotest.test_case "tree proba sums" `Quick test_tree_proba_sums_to_one;
    Alcotest.test_case "tree node counts" `Quick test_tree_node_counts;
    Alcotest.test_case "tree regressor step" `Quick test_tree_regressor_fits_step;
    Alcotest.test_case "tree min samples leaf" `Quick test_tree_min_samples_leaf;
    Alcotest.test_case "forest classifier" `Quick test_forest_classifier_beats_noise;
    Alcotest.test_case "forest proba" `Quick test_forest_proba_distribution;
    Alcotest.test_case "forest regressor" `Quick test_forest_regressor_interpolates;
    Alcotest.test_case "forest uncertainty" `Quick test_forest_regressor_uncertainty;
    Alcotest.test_case "forest deterministic" `Quick test_forest_deterministic_given_seed;
    Alcotest.test_case "forest deferred fit matches eager" `Quick
      test_forest_deferred_fit_matches_eager;
  ]
