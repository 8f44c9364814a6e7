(** The black box the Bayesian optimizer probes (paper §3.2.4): take one
    suggested configuration, train the corresponding model with the ML
    framework, measure the user's objective on held-out data, then generate
    the hardware mapping and query the backend for feasibility. *)

open Homunculus_alchemy
open Homunculus_backends

type artifact = {
  algorithm : Model_spec.algorithm;
  config : Homunculus_bo.Config.t;
  model_ir : Model_ir.t;
  verdict : Resource.verdict;
  objective : float;  (** the spec's metric on its test split, in [0, 1] *)
  pruned : bool;
      (** training was stopped at a successive-halving rung, so [objective]
          reflects a partial epoch budget *)
  epochs_trained : int;
      (** epochs the fit actually ran (0 for non-epoch algorithms) *)
}

(** Process-wide accounting of what exact evaluations cost, split into the
    three phases the DSE bench reports: training, lowering (name/
    standardization folding + objective), and backend estimation. Counters
    are mutex-guarded (evaluations run on pool workers) and deliberately
    kept out of history metadata, so reading them never perturbs a search's
    determinism. [estimates] is the "exact simulator invocations" metric:
    one per {!Homunculus_alchemy.Platform.estimate} call on a trained
    model ({!features_of_candidate}'s skeleton estimates are not charged). *)
module Timing : sig
  type snapshot = {
    evaluations : int;
    estimates : int;
    train_s : float;
    lower_s : float;
    estimate_s : float;
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot

  val charge : train:float -> lower:float -> estimate:float -> unit
  (** One exact evaluation's phase durations (seconds). Exposed for
      synthetic benches; {!evaluate} calls it itself. *)
end

val evaluate :
  Homunculus_util.Rng.t ->
  ?prune:Homunculus_bo.Asha.t ->
  ?guard:(epoch:int -> loss:float -> metric:float option -> unit) ->
  Platform.t ->
  Model_spec.t ->
  Model_spec.algorithm ->
  Homunculus_bo.Config.t ->
  artifact
(** Train + map + judge one configuration. Features are standardized with a
    scaler fitted on the training split; DNNs hold out 20% of the training
    data for early stopping so the test split stays untouched during
    training.

    With [?prune], DNN training reports its validation metric to the shared
    rung scheduler at each rung of the candidate's own epoch budget and
    stops early when the scheduler says so; the artifact then carries
    [pruned = true]. Non-DNN algorithms train in one shot and ignore the
    scheduler.

    [?guard] runs at every DNN training epoch, before rung accounting, with
    the epoch's mean training loss and validation metric; the evaluation
    supervisor uses it for divergence detection (non-finite loss) and
    wall-clock budget enforcement — it aborts the evaluation by raising.
    Non-DNN algorithms never call it. *)

val features_of_candidate :
  Platform.t ->
  Model_spec.algorithm ->
  input_dim:int ->
  n_classes:int ->
  Homunculus_bo.Config.t ->
  float array
(** Pure architecture/placement features for the learned cost-model
    pre-filter — computed {e without training anything}: a zero-weight
    skeleton model with the candidate's exact shape is lowered through
    {!Homunculus_alchemy.Platform.estimate}, and the resulting analytic
    verdict becomes the feature vector: [param_count; input_dim; n_classes;
    latency_ns; throughput_gpps; skeleton-feasible; perf targets] followed
    by [used; available; used/available] per backend resource. Fixed-length
    for a fixed (platform, algorithm, dataset); deterministic; does not
    touch {!Timing}. Callers typically prepend the design-space encoding. *)

val to_bo_evaluation : artifact -> Homunculus_bo.Optimizer.evaluation
(** Objective + feasibility + pruned flag + backend measurements as metadata
    ("params", "latency_ns", "throughput_gpps", "epochs_trained", plus
    per-resource usage). *)
