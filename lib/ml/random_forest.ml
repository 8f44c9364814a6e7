module Rng = Homunculus_util.Rng
module Stats = Homunculus_util.Stats
module Par = Homunculus_par.Par

let bootstrap rng n = Array.init n (fun _ -> Rng.int rng n)

(* Trees are embarrassingly parallel: pre-split one RNG stream per tree (in
   index order, off the caller's generator) and fit the forest on the domain
   pool. Tree [i] sees the same stream at any worker count, so the fitted
   forest is identical whether the pool has 1 or N domains. The split happens
   now and the fitting when the result is forced, so a caller can draw a
   forest's streams at one point of its RNG sequence and pay for the trees
   only if it ends up needing them. *)
let fit_trees ?pool rng n_trees fit_one =
  let rngs = Rng.split_n rng n_trees in
  lazy (Par.parallel_map ?pool fit_one rngs)

module Classifier = struct
  type t = { trees : Decision_tree.Classifier.t array; n_classes : int }

  let fit_deferred rng ?(n_trees = 30) ?params ?pool ~x ~y ~n_classes () =
    let n = Array.length x in
    if n = 0 then invalid_arg "Random_forest.Classifier.fit: empty input";
    let n_features = Array.length x.(0) in
    let params =
      match params with
      | Some p -> p
      | None ->
          {
            Decision_tree.default_params with
            m_try = Some (Stdlib.max 1 (int_of_float (sqrt (float_of_int n_features))));
          }
    in
    fit_trees ?pool rng n_trees (fun rng ->
        let idx = bootstrap rng n in
        let bx = Array.map (fun i -> x.(i)) idx in
        let by = Array.map (fun i -> y.(i)) idx in
        Decision_tree.Classifier.fit ~rng ~params ~x:bx ~y:by ~n_classes ())
    |> Lazy.map (fun trees -> { trees; n_classes })

  let fit rng ?n_trees ?params ?pool ~x ~y ~n_classes () =
    Lazy.force (fit_deferred rng ?n_trees ?params ?pool ~x ~y ~n_classes ())

  let predict_proba t sample =
    let acc = Array.make t.n_classes 0. in
    Array.iter
      (fun tree ->
        let p = Decision_tree.Classifier.predict_proba tree sample in
        Array.iteri (fun c v -> acc.(c) <- acc.(c) +. v) p)
      t.trees;
    let n = float_of_int (Array.length t.trees) in
    Array.map (fun v -> v /. n) acc

  let predict t sample = Stats.argmax (predict_proba t sample)
  let predict_all t samples = Array.map (predict t) samples
  let n_trees t = Array.length t.trees
end

module Regressor = struct
  type t = { trees : Decision_tree.Regressor.t array }

  let fit_deferred rng ?(n_trees = 30) ?params ?pool ~x ~y () =
    let n = Array.length x in
    if n = 0 then invalid_arg "Random_forest.Regressor.fit: empty input";
    let n_features = Array.length x.(0) in
    let params =
      match params with
      | Some p -> p
      | None ->
          {
            Decision_tree.default_params with
            m_try = Some (Stdlib.max 1 (n_features / 3));
          }
    in
    fit_trees ?pool rng n_trees (fun rng ->
        let idx = bootstrap rng n in
        let bx = Array.map (fun i -> x.(i)) idx in
        let by = Array.map (fun i -> y.(i)) idx in
        Decision_tree.Regressor.fit ~rng ~params ~x:bx ~y:by ())
    |> Lazy.map (fun trees -> { trees })

  let fit rng ?n_trees ?params ?pool ~x ~y () =
    Lazy.force (fit_deferred rng ?n_trees ?params ?pool ~x ~y ())

  let per_tree t sample =
    Array.map (fun tree -> Decision_tree.Regressor.predict tree sample) t.trees

  let predict t sample = Stats.mean (per_tree t sample)

  let predict_with_std t sample =
    let preds = per_tree t sample in
    (Stats.mean preds, Stats.std preds)

  let n_trees t = Array.length t.trees
end
