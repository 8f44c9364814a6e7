(** Probabilistic surrogate of the black-box objective.

    A random-forest regressor over encoded configurations; the cross-tree
    spread doubles as the predictive uncertainty, exactly as in HyperMapper's
    RF mode (paper §5). The optimizer fits it on the {e feasible} slice of
    the history — infeasible entries carry placeholder objectives (failure
    tags, predicted-infeasible commits), and nothing downstream ever
    consumes an infeasible entry's objective. *)

type t

val fit :
  Homunculus_util.Rng.t ->
  ?n_trees:int ->
  ?pool:Homunculus_par.Par.pool ->
  x:float array array ->
  y:float array ->
  unit ->
  t
(** Default 30 trees, fitted in parallel on [pool] (deterministic at any
    worker count). Empty input yields a constant predictor (mean 0, std 0)
    without consuming the RNG — the optimizer never consults the surrogate
    before a feasible incumbent exists, so the constant is never
    load-bearing. *)

val fit_deferred :
  Homunculus_util.Rng.t ->
  ?n_trees:int ->
  ?pool:Homunculus_par.Par.pool ->
  x:float array array ->
  y:float array ->
  unit ->
  t Lazy.t
(** {!fit} in two steps: the per-tree RNG streams are drawn from [rng] now,
    as {!fit} draws them (none for the constant predictor), and the forest
    is built when the result is forced. [fit] is [Lazy.force] of this. The
    optimizer uses it to draw a refit's streams at the refit round and build
    the trees only if some candidate needs a score. Force on one domain
    only: a [Lazy.t] forced from two domains at once raises. *)

val predict : t -> float array -> float * float
(** Mean and standard deviation of the objective at an encoded point. *)
