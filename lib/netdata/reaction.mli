(** Reaction-time analysis for per-packet detection (paper §5.1.1).

    FlowLens-style detection waits up to 3,600 s for a full flowmarker; a
    per-packet model can flag a botnet flow a handful of packets in. This
    module quantifies that claim for any per-packet classifier: the
    detection-quality curve as a function of packets seen, and per-flow
    reaction times (packets and seconds until the verdict fires). *)

type curve_point = {
  packets_seen : int;
  f1 : float;  (** over all flows with at least that many packets *)
  n_flows : int;
}

val detection_curve :
  classify:(float array -> int) ->
  bins:Botnet.bins ->
  prefix_lengths:int list ->
  Flow.t array ->
  curve_point list
(** Evaluate the classifier on partial flowmarkers of each given prefix
    length. Prefixes longer than a flow are skipped for that flow. *)

type reaction = {
  flow_id : int;
  packets_to_verdict : int option;  (** None: never flagged *)
  seconds_to_verdict : float option;
      (** timestamp of the packet that triggered the (confirmed) verdict *)
}

val reaction_times :
  classify:(float array -> int) ->
  bins:Botnet.bins ->
  ?confirm:int ->
  Flow.t array ->
  reaction list
(** For every botnet flow, the first packet index at which the classifier
    reports "botnet" for [confirm] consecutive packets (default 2 — a real
    deployment debounces). Evaluates the partial flowmarker after every
    packet from 2 up to the flow length. *)

type summary = {
  n_flows : int;
  detected : int;
  detection_rate : float;
  mean_packets : float;  (** over detected flows; 0 when none *)
  median_seconds : float;
  p95_seconds : float;
      (** nearest-rank percentiles of the detected flows' verdict times:
          each is a time some flow actually took *)
}

val summarize : reaction list -> summary
(** @raise Invalid_argument on empty input. *)

val pp_summary : Format.formatter -> summary -> unit
