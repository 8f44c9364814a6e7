module Json = Homunculus_util.Json

let num v : Json.t = if Float.is_nan v then Json.Null else Json.Number v
let int i : Json.t = Json.Number (float_of_int i)

(* The SLO convention: the reported p99 is a latency some packet actually
   experienced, never a value interpolated between two samples. *)
let percentile p xs = Homunculus_util.Stats.nearest_rank xs p

let latency_to_json latencies =
  let n = Array.length latencies in
  if n = 0 then
    Json.Object [ ("n", int 0) ]
  else begin
    let sum = Array.fold_left ( +. ) 0. latencies in
    Json.Object
      [
        ("n", int n);
        ("mean_s", num (sum /. float_of_int n));
        ("p50_s", num (percentile 50. latencies));
        ("p99_s", num (percentile 99. latencies));
        ("p999_s", num (percentile 99.9 latencies));
        ("max_s", num (percentile 100. latencies));
      ]
  end

let confusion_to_json c =
  Json.List
    (Array.to_list c
    |> List.map (fun row -> Json.List (Array.to_list row |> List.map int)))

let window_to_json (w : Monitor.window) =
  Json.Object
    [
      ("index", int w.Monitor.index);
      ("t_start", num w.Monitor.t_start);
      ("t_end", num w.Monitor.t_end);
      ("events", int w.Monitor.events);
      ("accuracy", num w.Monitor.accuracy);
      ("f1", num w.Monitor.f1);
      ("confusion", confusion_to_json w.Monitor.confusion);
      ("throughput_eps", num w.Monitor.throughput_eps);
      ("mean_queue_depth", num w.Monitor.mean_queue_depth);
      ("max_queue_depth", int w.Monitor.max_queue_depth);
    ]

let drift_to_json (d : Monitor.drift) =
  Json.Object
    [
      ("ts", num d.Monitor.ts);
      ("window", int d.Monitor.window);
      ("reason", Json.String d.Monitor.reason);
      ("value", num d.Monitor.value);
    ]

let swap_to_json (s : Engine.swap) =
  Json.Object
    [
      ("ts", num s.Engine.swap_ts);
      ("reason", Json.String s.Engine.swap_reason);
      ("queue_preserved", int s.Engine.queue_preserved);
      ("dropped_during_swap", int s.Engine.dropped_during_swap);
      ("incumbent_f1", num s.Engine.incumbent_f1);
      ("challenger_f1", num s.Engine.challenger_f1);
    ]

let decision_to_json (d : Updater.decision) =
  Json.Object
    [
      ("ts", num d.Updater.ts);
      ("reason", Json.String d.Updater.reason);
      ("buffer_size", int d.Updater.buffer_size);
      ("incumbent_f1", num d.Updater.incumbent_f1);
      ("challenger_f1", num d.Updater.challenger_f1);
      ("accepted", Json.Bool d.Updater.accepted);
      ("note", Json.String d.Updater.note);
    ]

let summary_to_json (s : Engine.summary) =
  Json.Object
    [
      ("offered", int s.Engine.offered);
      ("served", int s.Engine.served);
      ("dropped", int s.Engine.dropped);
      ("model", Json.String (Homunculus_backends.Model_ir.name s.Engine.final_model));
      ( "algorithm",
        Json.String (Homunculus_backends.Model_ir.algorithm s.Engine.final_model) );
      ("windows", Json.List (List.map window_to_json s.Engine.windows));
      ("drifts", Json.List (List.map drift_to_json s.Engine.drift_events));
      ("swaps", Json.List (List.map swap_to_json s.Engine.swaps));
      ( "decisions",
        Json.List (List.map decision_to_json s.Engine.updater_decisions) );
    ]

let tag name json =
  match (json : Json.t) with
  | Json.Object members -> Json.Object (("event", Json.String name) :: members)
  | other -> Json.Object [ ("event", Json.String name); ("record", other) ]

let timeline (s : Engine.summary) =
  let records =
    List.map
      (fun w -> (w.Monitor.t_end, 0, tag "window" (window_to_json w)))
      s.Engine.windows
    @ List.map
        (fun d -> (d.Monitor.ts, 1, tag "drift" (drift_to_json d)))
        s.Engine.drift_events
    @ List.map
        (fun d -> (d.Updater.ts, 2, tag "decision" (decision_to_json d)))
        s.Engine.updater_decisions
    @ List.map
        (fun sw -> (sw.Engine.swap_ts, 3, tag "swap" (swap_to_json sw)))
        s.Engine.swaps
  in
  List.stable_sort
    (fun (t1, k1, _) (t2, k2, _) -> compare (t1, k1) (t2, k2))
    records
  |> List.map (fun (_, _, j) -> j)

let to_jsonl s =
  timeline s
  |> List.map (fun j -> Json.to_string ~pretty:false j)
  |> String.concat "\n"
  |> fun body -> if body = "" then "" else body ^ "\n"

let write_jsonl ~path s =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_jsonl s))
