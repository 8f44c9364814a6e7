(** Serialize a serving run as JSON — the timeline a dashboard or a
    regression harness would consume, via {!Homunculus_util.Json} (no
    external dependencies, like the rest of the system's interchange). *)

val percentile : float -> float array -> float
(** [percentile p xs] is [Homunculus_util.Stats.nearest_rank xs p]: the
    nearest-rank percentile (the SLO convention), always a value some
    sample actually took. The input is not modified.
    @raise Invalid_argument on an empty sample or [p] outside [0, 100]. *)

val latency_to_json : float array -> Homunculus_util.Json.t
(** Latency-sample summary: count, mean, and nearest-rank p50 / p99 /
    p999 / max, in seconds. *)

val window_to_json : Monitor.window -> Homunculus_util.Json.t
val drift_to_json : Monitor.drift -> Homunculus_util.Json.t
val swap_to_json : Engine.swap -> Homunculus_util.Json.t
val decision_to_json : Updater.decision -> Homunculus_util.Json.t

val summary_to_json : Engine.summary -> Homunculus_util.Json.t
(** One object: run totals plus the full windows / drifts / swaps /
    decisions lists. *)

val timeline : Engine.summary -> Homunculus_util.Json.t list
(** The run as a flat, virtual-time-ordered sequence of records, each
    tagged with an ["event"] member (["window"], ["drift"], ["swap"], or
    ["decision"]). *)

val to_jsonl : Engine.summary -> string
(** {!timeline}, one compact JSON object per line. *)

val write_jsonl : path:string -> Engine.summary -> unit
