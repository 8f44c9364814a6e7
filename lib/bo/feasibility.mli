(** Probability-of-feasibility model.

    Homunculus encodes data-plane resources and network constraints as
    feasibility requirements (paper §3.2.2); the optimizer learns which
    regions of the space violate them and discounts candidates there, as in
    constrained Bayesian optimization (Gardner et al. 2014). *)

type t

val fit :
  Homunculus_util.Rng.t ->
  ?n_trees:int ->
  ?pool:Homunculus_par.Par.pool ->
  x:float array array ->
  feasible:bool array ->
  unit ->
  t
(** Random-forest classifier on the encoded configurations. Degenerate
    histories (all feasible or all infeasible) yield constant predictors. *)

val fit_deferred :
  Homunculus_util.Rng.t ->
  ?n_trees:int ->
  ?pool:Homunculus_par.Par.pool ->
  x:float array array ->
  feasible:bool array ->
  unit ->
  t Lazy.t
(** Streams now, forest on force, as {!Surrogate.fit_deferred}; the input
    checks and the constant cases are decided now, and draw nothing.
    [fit] is [Lazy.force] of this. *)

val prob_feasible : t -> float array -> float
