(** The constrained Bayesian-optimization loop (HyperMapper's core algorithm
    as configured by the paper: uniform random warm-up, random-forest
    surrogate, Expected Improvement weighted by probability of feasibility),
    extended with constant-liar batch proposal so several candidates can be
    evaluated concurrently per surrogate fit.

    The core is ask/tell, like HyperMapper's client-server mode: {!propose}
    hands out a batch of configurations, the caller measures them however
    it likes (a worker pool, a pre-filter, a journal replay, a fleet of
    worker processes), and {!tell} commits the results in proposal order.
    Every random draw and model fit happens inside [propose] on the calling
    domain, so for a fixed seed and settings the committed history depends
    only on the evaluations told — never on how or where they ran. *)

type settings = {
  n_init : int;  (** uniform random warm-up evaluations *)
  n_iter : int;  (** model-guided evaluations after warm-up *)
  pool_size : int;  (** candidates scored per BO iteration *)
  local_search_frac : float;
      (** fraction of the pool drawn as neighbors of the incumbent rather
          than uniformly (exploitation vs exploration) *)
  surrogate_trees : int;
  batch_size : int;
      (** candidates proposed per surrogate fit (constant-liar batching) and
          evaluated concurrently on the worker pool. [1] recovers the
          classic fully-sequential loop; [k > 1] spends the same evaluation
          budget over [k] times fewer surrogate fits. *)
  refit_every : int;
      (** once the history holds more than [refit_threshold] entries, reuse
          the fitted surrogate pair until this many fresh evaluations have
          been committed since the last fit. [1] refits every round (the
          classic loop). *)
  refit_threshold : int;
      (** history length below which the surrogate is refitted every round
          regardless of [refit_every] — early rounds are where each new
          observation moves the model most. *)
}

val default_settings : settings
(** 10 warm-up, 40 guided, pool 200, 0.5 local, 30 trees, batch 1, refit
    every round. *)

val continuation : settings -> replayed:int -> fresh:int -> settings
(** Warm-start entry point for replay-then-continue searches: the settings
    for a re-search that replays [replayed] previously journaled
    evaluations (as supervisor cache hits) and then spends [fresh] {e new}
    guided evaluations. [n_init] is preserved — when [replayed >= n_init]
    every warm-up proposal is a cache hit, so the random-initialization
    phase is effectively skipped — and [n_iter] becomes
    [max 0 (replayed - n_init) + fresh]: the guided prefix the replay
    covers, plus the fresh budget. Because the re-driven optimizer consumes
    the same RNG stream, the resulting history is bit-for-bit the one a
    single longer search would have produced (the warm-start determinism
    contract tested by the autopilot suite).
    @raise Invalid_argument when [fresh < 0]. *)

type evaluation = {
  objective : float;  (** value to maximize, e.g. F1 *)
  feasible : bool;
  pruned : bool;
      (** the evaluation was stopped early at a successive-halving rung;
          [objective] is the partial-budget metric (recorded in the history
          with the same flag, so the surrogate learns from it but the
          incumbent ignores it) *)
  metadata : (string * float) list;
}

type t
(** One optimization run: the RNG stream, the history, the fitted
    surrogate pair, and the proposal awaiting its evaluations. *)

val create :
  Homunculus_util.Rng.t ->
  ?settings:settings ->
  ?pool:Homunculus_par.Par.pool ->
  Design_space.t ->
  t
(** Surrogate fits and candidate scoring run on [pool] (default
    {!Homunculus_par.Par.default}). @raise Invalid_argument when [n_init],
    [batch_size] or [refit_every] is not positive. *)

val propose : t -> (int * Config.t) array
(** The next batch: up to [batch_size] configurations, each paired with the
    0-based position its evaluation will occupy in the history. Warm-up
    batches are uniform samples; guided batches come from one surrogate fit
    (or a reused one, per the refit cadence) by constant-liar selection.
    A refit round draws the surrogate pair's RNG streams at once, but builds
    the forests only when a candidate of the pool needs a score, that is,
    when some candidate has not been evaluated yet; a round whose pool holds
    only evaluated configurations builds none. The history is the same as
    if every refit were built eagerly.
    Duplicates of evaluated or batch-mate configurations are replaced by
    fresh uniform samples when possible. Returns [[||]] once
    [n_init + n_iter] configurations have been proposed.
    @raise Invalid_argument if the previous proposal has not been told. *)

val tell : t -> evaluation array -> unit
(** Commit the evaluations of the last proposal, in its order.
    @raise Invalid_argument when nothing is awaiting evaluations or the
    array's length differs from the proposal's. *)

val history : t -> History.t
(** Everything told so far, in proposal order. *)

val refits : t -> int
(** How many refit rounds there have been — rounds that drew a new
    surrogate pair rather than reusing one, whether or not its forests were
    then built. The refit-cadence benches count these. *)

val maximize :
  Homunculus_util.Rng.t ->
  ?settings:settings ->
  ?pool:Homunculus_par.Par.pool ->
  Design_space.t ->
  f:(Config.t -> evaluation) ->
  History.t
(** The plain driver: {!propose}, evaluate the batch with
    {!Homunculus_par.Par.parallel_map} on [pool], {!tell}, until the budget
    is spent. [f] is called exactly [n_init + n_iter] times, possibly from
    pool worker domains and concurrently within a batch; the history is
    identical at any worker count. *)

val random_search :
  Homunculus_util.Rng.t ->
  n:int ->
  Design_space.t ->
  f:(Config.t -> evaluation) ->
  History.t
(** Pure random search baseline for the DSE ablation bench. *)
