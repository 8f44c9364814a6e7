(** Differential oracle for the learned cost-model pre-filter.

    The filter's contract ({!Homunculus_bo.Cost_model}) promises that
    skipping "clearly infeasible" candidates never changes what the search
    ultimately delivers. This module checks that promise empirically: it
    drives the same seeded search twice — once exact, once through the
    filter — then re-evaluates {e every} skipped candidate exactly and
    counts how often the filter was wrong, and whether any of its mistakes
    could have mattered.

    Tolerance rule: mispredictions are expected (the filter is a learned
    model; the margin band exists because its boundary is fuzzy) — but a
    {e feasible-winner veto} is a contract violation: a skipped candidate
    that turns out both feasible and better than the filtered search's
    winner means the filter discarded the artifact the user should have
    received. A healthy corpus reports [feasible_winner_vetoes = 0], and
    [winner_matched = true] whenever [mispredicted_feasible = 0]: a
    mispredicted skip commits an infeasible entry where a feasible one
    belongs, so the filtered search proposes differently from then on and
    may end on another, equally un-vetoed winner. *)

module Bo = Homunculus_bo

type winner = { config : Bo.Config.t; objective : float }

type report = {
  evaluated : int;  (** history length of each run (identical budgets) *)
  skipped : int;  (** candidates the filter committed as predicted *)
  exact_refiltered : int;  (** skipped candidates re-evaluated post hoc *)
  mispredicted_feasible : int;
      (** skipped candidates that are in fact feasible (non-pruned) *)
  feasible_winner_vetoes : int;
      (** mispredicted-feasible candidates whose exact objective beats the
          filtered run's winner — the violation class; must be 0 *)
  winner_matched : bool;
      (** same winning config, bit-identical objective, both runs *)
  exact_winner : winner option;
  filtered_winner : winner option;
  stats : Bo.Cost_model.stats;
}

val filtered_history :
  seed:int ->
  ?settings:Bo.Optimizer.settings ->
  ?pool:Homunculus_par.Par.pool ->
  Bo.Cost_model.t ->
  Bo.Design_space.t ->
  f:(Bo.Config.t -> Bo.Optimizer.evaluation) ->
  Bo.History.t
(** The pre-filtered search, driven by propose/tell: each proposed batch is
    judged by the filter in proposal order on the calling domain, the
    survivors are evaluated with [f] on [pool], and every committed exact
    entry trains the filter in commit order. *)

val run :
  seed:int ->
  ?settings:Bo.Optimizer.settings ->
  ?cost_settings:Bo.Cost_model.settings ->
  space:Bo.Design_space.t ->
  features:(Bo.Config.t -> float array) ->
  eval:(Bo.Config.t -> Bo.Optimizer.evaluation) ->
  unit ->
  report
(** Replay one search corpus through both paths. [eval] must be a
    deterministic function of the configuration (evaluation caches are fine;
    hidden state is not) — the exact arm and the post-hoc re-evaluation of
    skipped candidates rely on it measuring the same thing twice. Runs
    sequentially on the calling domain. *)

val summary : report -> string
(** One-line human rendering, stable across runs with the same report. *)
