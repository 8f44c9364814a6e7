(* Differential oracle for the CART split search: [Decision_tree]'s
   columnar learners must grow exactly the trees of the boxed-pair
   reference in [Tree_reference] — same features, same threshold bits, same
   leaf bits, and the same draws from the feature-sampling RNG. Inputs are
   derived from one integer seed through Rng, so qcheck shrinks over seeds
   and every failure reproduces from one integer. The generator favours the
   inputs where a tie order could leak into a result: few distinct values
   per feature (including -0., 0. and nan), distinct targets on tied keys,
   and rows duplicated the way bootstrap samples duplicate them.

   QCHECK_LONG=1 runs each property at [long_factor] times its count. *)
open Homunculus_ml
module Rng = Homunculus_util.Rng

let bits = Int64.bits_of_float

let rec same_tree (a : Decision_tree.node) (b : Decision_tree.node) =
  match (a, b) with
  | Leaf { distribution = d1 }, Leaf { distribution = d2 } ->
      Array.length d1 = Array.length d2
      && Array.for_all2 (fun u v -> Int64.equal (bits u) (bits v)) d1 d2
  | Split s1, Split s2 ->
      s1.feature = s2.feature
      && Int64.equal (bits s1.threshold) (bits s2.threshold)
      && same_tree s1.left s2.left && same_tree s1.right s2.right
  | _ -> false

let tie_levels = [| -1.; -0.; 0.; 0.5; 1.; Float.nan |]

(* One feature column: heavily tied levels, a few integer levels, or
   continuous values. *)
let random_column rng n =
  match Rng.int rng 3 with
  | 0 ->
      let k = 1 + Rng.int rng (Array.length tie_levels) in
      Array.init n (fun _ -> tie_levels.(Rng.int rng k))
  | 1 ->
      let k = 1 + Rng.int rng 4 in
      Array.init n (fun _ -> float_of_int (Rng.int rng k))
  | _ -> Array.init n (fun _ -> Rng.gaussian rng ())

type case = {
  x : float array array;
  labels : int array;
  n_classes : int;
  targets : float array;
  params : Decision_tree.params;
  fit_seed : int;
}

let random_case seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng (if Rng.int rng 8 = 0 then 400 else 60) in
  let n_features = 1 + Rng.int rng 5 in
  let cols = Array.init n_features (fun _ -> random_column rng n) in
  let rows = Array.init n (fun i -> Array.map (fun col -> col.(i)) cols) in
  let n_classes = 2 + Rng.int rng 3 in
  let labels = Array.init n (fun _ -> Rng.int rng n_classes) in
  (* Distinct targets whose sums round differently in different orders. *)
  let targets = Array.init n (fun _ -> 1000. +. Rng.gaussian rng ~sigma:37. ()) in
  let x, labels, targets =
    if Rng.bool rng then (rows, labels, targets)
    else
      (* A bootstrap sample: rows drawn with replacement share their arrays. *)
      let idx = Array.init n (fun _ -> Rng.int rng n) in
      ( Array.map (fun i -> rows.(i)) idx,
        Array.map (fun i -> labels.(i)) idx,
        Array.map (fun i -> targets.(i)) idx )
  in
  let params =
    {
      Decision_tree.max_depth = Rng.int rng 11;
      min_samples_leaf = 1 + Rng.int rng 5;
      m_try = (if Rng.bool rng then None else Some (1 + Rng.int rng n_features));
    }
  in
  { x; labels; n_classes; targets; params; fit_seed = Rng.int rng 1_000_000 }

(* Fits both learners from one RNG seed each; besides equal trees, the two
   RNGs must end in the same state. *)
let agree fit_new fit_ref c =
  let rng_new = Rng.create c.fit_seed and rng_ref = Rng.create c.fit_seed in
  let tree_new = fit_new rng_new and tree_ref = fit_ref rng_ref in
  same_tree tree_new tree_ref
  && Rng.int rng_new 1_000_000 = Rng.int rng_ref 1_000_000

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_classifier =
  QCheck.Test.make ~name:"classifier trees equal the reference" ~count:400
    ~long_factor:20 seed_gen (fun seed ->
      let c = random_case seed in
      agree
        (fun rng ->
          Decision_tree.Classifier.root
            (Decision_tree.Classifier.fit ~rng ~params:c.params ~x:c.x ~y:c.labels
               ~n_classes:c.n_classes ()))
        (fun rng ->
          Tree_reference.classifier ~rng ~params:c.params ~x:c.x ~y:c.labels
            ~n_classes:c.n_classes ())
        c)

let prop_regressor =
  QCheck.Test.make ~name:"regressor trees equal the reference" ~count:400
    ~long_factor:20 seed_gen (fun seed ->
      let c = random_case seed in
      agree
        (fun rng ->
          Decision_tree.Regressor.root
            (Decision_tree.Regressor.fit ~rng ~params:c.params ~x:c.x ~y:c.targets ()))
        (fun rng ->
          Tree_reference.regressor ~rng ~params:c.params ~x:c.x ~y:c.targets ())
        c)

let suite = List.map QCheck_alcotest.to_alcotest [ prop_classifier; prop_regressor ]
