module Rfc = Homunculus_ml.Random_forest.Classifier

type t = Constant of float | Forest of Rfc.t

let fit_deferred rng ?(n_trees = 30) ?pool ~x ~feasible () =
  if Array.length x = 0 then invalid_arg "Feasibility.fit: empty input";
  if Array.length x <> Array.length feasible then
    invalid_arg "Feasibility.fit: length mismatch";
  let any_true = Array.exists (fun b -> b) feasible in
  let any_false = Array.exists not feasible in
  if not any_false then Lazy.from_val (Constant 1.)
  else if not any_true then Lazy.from_val (Constant 0.5)
    (* All observations infeasible: stay optimistic enough to keep searching. *)
  else
    let y = Array.map (fun b -> if b then 1 else 0) feasible in
    Lazy.map (fun f -> Forest f) (Rfc.fit_deferred rng ~n_trees ?pool ~x ~y ~n_classes:2 ())

let fit rng ?n_trees ?pool ~x ~feasible () =
  Lazy.force (fit_deferred rng ?n_trees ?pool ~x ~feasible ())

let prob_feasible t point =
  match t with
  | Constant p -> p
  | Forest forest -> (Rfc.predict_proba forest point).(1)
