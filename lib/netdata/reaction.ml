module Stats = Homunculus_util.Stats
module Metrics = Homunculus_ml.Metrics

type curve_point = { packets_seen : int; f1 : float; n_flows : int }

let detection_curve ~classify ~bins ~prefix_lengths flows =
  List.map
    (fun k ->
      let eligible =
        Array.to_list flows |> List.filter (fun f -> Flow.n_packets f >= k)
      in
      let pred, truth =
        List.split
          (List.map
             (fun f ->
               ( classify (Botnet.flow_features bins f ~first_packets:k ()),
                 Flow.label_to_int f.Flow.label ))
             eligible)
      in
      let f1 =
        if pred = [] then 0.
        else
          Metrics.f1 ~pred:(Array.of_list pred) ~truth:(Array.of_list truth) ()
      in
      { packets_seen = k; f1; n_flows = List.length eligible })
    prefix_lengths

type reaction = {
  flow_id : int;
  packets_to_verdict : int option;
  seconds_to_verdict : float option;
}

let reaction_times ~classify ~bins ?(confirm = 2) flows =
  if confirm <= 0 then invalid_arg "Reaction.reaction_times: confirm <= 0";
  Array.to_list flows
  |> List.filter (fun f -> f.Flow.label = Flow.Botnet)
  |> List.map (fun f ->
         let n = Flow.n_packets f in
         let rec scan k streak =
           if k > n then None
           else
             let verdict =
               classify (Botnet.flow_features bins f ~first_packets:k ())
             in
             if verdict = Flow.label_to_int Flow.Botnet then
               if streak + 1 >= confirm then Some k else scan (k + 1) (streak + 1)
             else scan (k + 1) 0
         in
         match scan 2 0 with
         | Some k ->
             {
               flow_id = f.Flow.id;
               packets_to_verdict = Some k;
               seconds_to_verdict = Some f.Flow.packets.(k - 1).Packet.ts;
             }
         | None ->
             { flow_id = f.Flow.id; packets_to_verdict = None; seconds_to_verdict = None })

type summary = {
  n_flows : int;
  detected : int;
  detection_rate : float;
  mean_packets : float;
  median_seconds : float;
  p95_seconds : float;
}

let summarize reactions =
  if reactions = [] then invalid_arg "Reaction.summarize: empty input";
  let detected =
    List.filter_map
      (fun r ->
        match (r.packets_to_verdict, r.seconds_to_verdict) with
        | Some p, Some s -> Some (p, s)
        | _ -> None)
      reactions
  in
  let n_flows = List.length reactions in
  let n_detected = List.length detected in
  if n_detected = 0 then
    {
      n_flows;
      detected = 0;
      detection_rate = 0.;
      mean_packets = 0.;
      median_seconds = 0.;
      p95_seconds = 0.;
    }
  else
    let packets = Array.of_list (List.map (fun (p, _) -> float_of_int p) detected) in
    let seconds = Array.of_list (List.map snd detected) in
    {
      n_flows;
      detected = n_detected;
      detection_rate = float_of_int n_detected /. float_of_int n_flows;
      mean_packets = Stats.mean packets;
      median_seconds = Stats.nearest_rank seconds 50.;
      p95_seconds = Stats.nearest_rank seconds 95.;
    }

let pp_summary fmt s =
  Format.fprintf fmt
    "%d/%d botnet flows detected (%.0f%%); mean %.1f packets to verdict; \
     median %.1f s, p95 %.1f s"
    s.detected s.n_flows (100. *. s.detection_rate) s.mean_packets
    s.median_seconds s.p95_seconds
