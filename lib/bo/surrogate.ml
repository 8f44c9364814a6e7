module Rf = Homunculus_ml.Random_forest.Regressor

(* [Constant] covers the no-training-data case (e.g. a history whose every
   entry is infeasible, so the objective model has nothing to learn from).
   The optimizer only consults the surrogate once a feasible incumbent
   exists, so the constant's value is never load-bearing — but returning
   (0, 0) without consuming the RNG keeps the caller's stream identical to
   the non-degenerate run shape. *)
type t = Constant | Forest of Rf.t

let fit_deferred rng ?(n_trees = 30) ?pool ~x ~y () =
  if Array.length x = 0 then Lazy.from_val Constant
  else Lazy.map (fun f -> Forest f) (Rf.fit_deferred rng ~n_trees ?pool ~x ~y ())

let fit rng ?n_trees ?pool ~x ~y () =
  Lazy.force (fit_deferred rng ?n_trees ?pool ~x ~y ())

let predict t point =
  match t with
  | Constant -> (0., 0.)
  | Forest forest -> Rf.predict_with_std forest point
