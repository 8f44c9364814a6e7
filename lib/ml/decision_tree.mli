(** CART decision trees (classification by Gini impurity, regression by
    variance reduction).

    Trees serve two roles: (1) an algorithm IIsy can map onto match-action
    tables (one table per tree level), and (2) the base learner of the random
    forests used as the Bayesian-optimization surrogate.

    {b Split search and its bit-identity contract.} At each node, every
    candidate feature is swept in ascending value order ([Float.compare]:
    [nan] first, [-0. = 0.]) and every boundary between two distinct values
    is scored. The first strictly lowest score wins, in candidate-feature
    order and then in value order. Its threshold is the midpoint of the two
    values. A search history records every tree a search trains, so the
    tree for given inputs is fixed down to the bit:
    - {b Classifier.} Scores come from exact integer class counts, so the
      order among tied values is free. Each column is sorted once per tree,
      and nodes partition the sorted orders.
    - {b Regressor.} The sweep sums targets in sorted order, so the order
      among tied values decides the rounding. Every node sorts its (value,
      target) pairs with the ternary heap sort of OCaml 5.1's [Array.sort],
      comparing values only, and sums in the order it produces. Changing
      that sort (presorting, a stable sort) changes trees.
    - {b Right child first.} A split builds its right subtree before its
      left one. With [m_try], the subtrees draw candidate features from
      [rng] in that order. *)

type node =
  | Leaf of { distribution : float array }
      (** class probabilities (classification) or singleton mean (regression) *)
  | Split of { feature : int; threshold : float; left : node; right : node }
      (** samples with [x.(feature) <= threshold] go left *)

type params = {
  max_depth : int;
  min_samples_leaf : int;
  m_try : int option;
      (** number of candidate features per split; [None] = all features *)
}

val default_params : params
(** depth 12, min leaf 2, all features. *)

val depth : node -> int
val n_leaves : node -> int
val n_nodes : node -> int

module Classifier : sig
  type t

  val fit :
    ?rng:Homunculus_util.Rng.t ->
    ?params:params ->
    x:float array array ->
    y:int array ->
    n_classes:int ->
    unit ->
    t
  (** [rng] is only needed when [params.m_try] is set. *)

  val root : t -> node
  val n_classes : t -> int
  val predict_proba : t -> float array -> float array
  val predict : t -> float array -> int
  val predict_all : t -> float array array -> int array
end

module Regressor : sig
  type t

  val fit :
    ?rng:Homunculus_util.Rng.t ->
    ?params:params ->
    x:float array array ->
    y:float array ->
    unit ->
    t

  val root : t -> node
  val predict : t -> float array -> float
end
