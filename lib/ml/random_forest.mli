(** Random forests: bagged CART trees with per-split feature subsampling.

    The regressor is the Bayesian-optimization surrogate model the paper
    configures in HyperMapper (§5: "Random Forests surrogate ... known to work
    well with systems workloads"); its per-tree spread provides the
    uncertainty estimate consumed by Expected Improvement. *)

module Classifier : sig
  type t

  val fit :
    Homunculus_util.Rng.t ->
    ?n_trees:int ->
    ?params:Decision_tree.params ->
    ?pool:Homunculus_par.Par.pool ->
    x:float array array ->
    y:int array ->
    n_classes:int ->
    unit ->
    t
  (** Defaults: 30 trees, [m_try = sqrt n_features], depth 12. Trees are
      fitted on [pool] (default {!Homunculus_par.Par.default}) from
      pre-split per-tree RNG streams, so the forest is identical at any
      worker count. *)

  val fit_deferred :
    Homunculus_util.Rng.t ->
    ?n_trees:int ->
    ?params:Decision_tree.params ->
    ?pool:Homunculus_par.Par.pool ->
    x:float array array ->
    y:int array ->
    n_classes:int ->
    unit ->
    t Lazy.t
  (** {!fit} in two steps: the [n_trees] per-tree streams are split off
      [rng] now, exactly as {!fit} splits them, and the trees are fitted when
      the result is forced, from those streams and the arrays given here.
      [fit] is [Lazy.force] of this. Force on one domain only. *)

  val predict_proba : t -> float array -> float array
  (** Mean of per-tree class distributions. *)

  val predict : t -> float array -> int
  val predict_all : t -> float array array -> int array
  val n_trees : t -> int
end

module Regressor : sig
  type t

  val fit :
    Homunculus_util.Rng.t ->
    ?n_trees:int ->
    ?params:Decision_tree.params ->
    ?pool:Homunculus_par.Par.pool ->
    x:float array array ->
    y:float array ->
    unit ->
    t
  (** Defaults: 30 trees, [m_try = max(1, n_features / 3)], depth 12. Same
      pre-split parallel fitting (and determinism guarantee) as
      {!Classifier.fit}. *)

  val fit_deferred :
    Homunculus_util.Rng.t ->
    ?n_trees:int ->
    ?params:Decision_tree.params ->
    ?pool:Homunculus_par.Par.pool ->
    x:float array array ->
    y:float array ->
    unit ->
    t Lazy.t
  (** Streams now, trees on force, as {!Classifier.fit_deferred}. *)

  val predict : t -> float array -> float
  val predict_with_std : t -> float array -> float * float
  (** Mean and standard deviation across trees (the BO uncertainty signal). *)

  val n_trees : t -> int
end
