(** Descriptive statistics over float arrays.

    Used throughout the evaluation harness (metric aggregation, histogram
    comparison, surrogate-model diagnostics). All functions raise
    [Invalid_argument] on empty input unless noted. *)

val mean : float array -> float
val variance : float array -> float
(** Population variance (divide by [n]). *)

val std : float array -> float
val min : float array -> float
val max : float array -> float
val sum : float array -> float
(** [sum [||]] is [0.]. *)

val median : float array -> float
(** Does not mutate its argument. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0, 100], linear interpolation between order
    statistics. Does not mutate its argument. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank xs p] for [p] in [0, 100]: the element of rank
    [ceil (p/100 * n)] (1-based) of the ascending sample; [p = 0] gives the
    minimum, [p = 100] the maximum. Always a value of [xs], never an
    interpolation between two of them, so a latency percentile is one some
    packet actually saw. Does not mutate its argument. *)

val argmax : float array -> int
val argmin : float array -> int

val entropy : float array -> float
(** Shannon entropy (nats) of a discrete distribution given as non-negative
    weights; the weights are normalized internally. Zero-weight cells
    contribute zero. *)

val mutual_information : float array array -> float
(** Mutual information (nats) of a joint contingency table [counts.(i).(j)]. *)

val pearson : float array -> float array -> float
(** Correlation coefficient; [0.] when either side is constant. *)

val normalize : float array -> float array
(** Scale non-negative weights to sum to 1; all-zero input maps to all-zero
    output. *)
