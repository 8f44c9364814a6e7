(* Reference CART learners: the boxed-pair split search that
   [Decision_tree] used before its columnar rewrite, kept verbatim as the
   oracle the differential test compares against. Per node and feature it
   builds one (value, target) tuple per sample and sorts them with
   [Array.sort]; the regressor's tie order, and so its rounding, is
   whatever that heap sort produces. Not for use outside tests. *)

open Homunculus_ml
module Rng = Homunculus_util.Rng
open Decision_tree

let candidate_features rng ~n_features ~m_try =
  match (rng, m_try) with
  | Some rng, Some m when m < n_features -> Rng.sample_indices rng ~n:n_features ~k:m
  | _, _ -> Array.init n_features (fun j -> j)

let gini counts total =
  if total = 0. then 0.
  else
    let acc = ref 1. in
    Array.iter
      (fun c ->
        let p = c /. total in
        acc := !acc -. (p *. p))
      counts;
    !acc

type split_result = { feature : int; threshold : float; score : float }

let best_split_classification ~x ~y ~n_classes ~indices ~features ~min_leaf =
  let n = Array.length indices in
  let best = ref None in
  Array.iter
    (fun f ->
      let pairs =
        Array.map (fun i -> (x.(i).(f), y.(i))) indices
      in
      Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
      let left = Array.make n_classes 0. in
      let right = Array.make n_classes 0. in
      Array.iter (fun (_, label) -> right.(label) <- right.(label) +. 1.) pairs;
      for cut = 1 to n - 1 do
        let _, label = pairs.(cut - 1) in
        left.(label) <- left.(label) +. 1.;
        right.(label) <- right.(label) -. 1.;
        let v_prev = fst pairs.(cut - 1) and v_next = fst pairs.(cut) in
        if v_prev < v_next && cut >= min_leaf && n - cut >= min_leaf then begin
          let nl = float_of_int cut and nr = float_of_int (n - cut) in
          let score =
            ((nl *. gini left nl) +. (nr *. gini right nr)) /. float_of_int n
          in
          match !best with
          | Some b when b.score <= score -> ()
          | Some _ | None ->
              best :=
                Some { feature = f; threshold = (v_prev +. v_next) /. 2.; score }
        end
      done)
    features;
  !best

let best_split_regression ~x ~y ~indices ~features ~min_leaf =
  let n = Array.length indices in
  let best = ref None in
  Array.iter
    (fun f ->
      let pairs = Array.map (fun i -> (x.(i).(f), y.(i))) indices in
      Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
      let sum_r = ref 0. and sq_r = ref 0. in
      Array.iter
        (fun (_, v) ->
          sum_r := !sum_r +. v;
          sq_r := !sq_r +. (v *. v))
        pairs;
      let sum_l = ref 0. and sq_l = ref 0. in
      for cut = 1 to n - 1 do
        let _, v = pairs.(cut - 1) in
        sum_l := !sum_l +. v;
        sq_l := !sq_l +. (v *. v);
        sum_r := !sum_r -. v;
        sq_r := !sq_r -. (v *. v);
        let v_prev = fst pairs.(cut - 1) and v_next = fst pairs.(cut) in
        if v_prev < v_next && cut >= min_leaf && n - cut >= min_leaf then begin
          let nl = float_of_int cut and nr = float_of_int (n - cut) in
          (* Sum of squared errors on each side. *)
          let sse_l = !sq_l -. (!sum_l *. !sum_l /. nl) in
          let sse_r = !sq_r -. (!sum_r *. !sum_r /. nr) in
          let score = sse_l +. sse_r in
          match !best with
          | Some b when b.score <= score -> ()
          | Some _ | None ->
              best :=
                Some { feature = f; threshold = (v_prev +. v_next) /. 2.; score }
        end
      done)
    features;
  !best

let partition ~x ~indices ~feature ~threshold =
  let left = ref [] and right = ref [] in
  Array.iter
    (fun i ->
      if x.(i).(feature) <= threshold then left := i :: !left
      else right := i :: !right)
    indices;
  (Array.of_list (List.rev !left), Array.of_list (List.rev !right))

let class_distribution ~y ~n_classes indices =
  let counts = Array.make n_classes 0. in
  Array.iter (fun i -> counts.(y.(i)) <- counts.(y.(i)) +. 1.) indices;
  Homunculus_util.Stats.normalize counts

let classifier ?rng ?(params = default_params) ~x ~y ~n_classes () =
  let n = Array.length x in
  let n_features = Array.length x.(0) in
  let rec build indices d =
    let leaf () = Leaf { distribution = class_distribution ~y ~n_classes indices } in
    let pure =
      let first = y.(indices.(0)) in
      Array.for_all (fun i -> y.(i) = first) indices
    in
    if
      d >= params.max_depth || pure
      || Array.length indices < 2 * params.min_samples_leaf
    then leaf ()
    else
      let features = candidate_features rng ~n_features ~m_try:params.m_try in
      match
        best_split_classification ~x ~y ~n_classes ~indices ~features
          ~min_leaf:params.min_samples_leaf
      with
      | None -> leaf ()
      | Some { feature; threshold; _ } ->
          let li, ri = partition ~x ~indices ~feature ~threshold in
          if Array.length li = 0 || Array.length ri = 0 then leaf ()
          else
            Split
              {
                feature;
                threshold;
                left = build li (d + 1);
                right = build ri (d + 1);
              }
  in
  build (Array.init n (fun i -> i)) 0

let mean_of ~y indices =
  let acc = ref 0. in
  Array.iter (fun i -> acc := !acc +. y.(i)) indices;
  !acc /. float_of_int (Array.length indices)

let regressor ?rng ?(params = default_params) ~x ~y () =
  let n = Array.length x in
  let n_features = Array.length x.(0) in
  let rec build indices d =
    let leaf () = Leaf { distribution = [| mean_of ~y indices |] } in
    if d >= params.max_depth || Array.length indices < 2 * params.min_samples_leaf
    then leaf ()
    else
      let features = candidate_features rng ~n_features ~m_try:params.m_try in
      match
        best_split_regression ~x ~y ~indices ~features
          ~min_leaf:params.min_samples_leaf
      with
      | None -> leaf ()
      | Some { feature; threshold; _ } ->
          let li, ri = partition ~x ~indices ~feature ~threshold in
          if Array.length li = 0 || Array.length ri = 0 then leaf ()
          else
            Split
              {
                feature;
                threshold;
                left = build li (d + 1);
                right = build ri (d + 1);
              }
  in
  build (Array.init n (fun i -> i)) 0
