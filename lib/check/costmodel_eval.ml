module Bo = Homunculus_bo
module Par = Homunculus_par.Par
module Rng = Homunculus_util.Rng

type winner = { config : Bo.Config.t; objective : float }

type report = {
  evaluated : int;
  skipped : int;
  exact_refiltered : int;
  mispredicted_feasible : int;
  feasible_winner_vetoes : int;
  winner_matched : bool;
  exact_winner : winner option;
  filtered_winner : winner option;
  stats : Bo.Cost_model.stats;
}

let winner_of_history history =
  Option.map
    (fun (e : Bo.History.entry) ->
      { config = e.Bo.History.config; objective = e.Bo.History.objective })
    (Bo.History.best history)

(* The filtered search as the compiler drives it, minus the journal: the
   filter judges each proposed batch sequentially in proposal order (its
   counters are not domain-safe), only the survivors are evaluated, and
   every committed exact entry then trains the filter in commit order. *)
let filtered_history ~seed ?settings ?pool cm space ~f =
  let opt = Bo.Optimizer.create (Rng.create seed) ?settings ?pool space in
  let rec loop () =
    match Bo.Optimizer.propose opt with
    | [||] -> Bo.Optimizer.history opt
    | batch ->
        let configs = Array.map snd batch in
        let judged = Array.map (Bo.Cost_model.prefilter cm) configs in
        let evals =
          Par.parallel_map ?pool ~chunk:1
            (fun (config, verdict) ->
              match verdict with Some predicted -> predicted | None -> f config)
            (Array.combine configs judged)
        in
        Bo.Optimizer.tell opt evals;
        Array.iter2
          (fun config (e : Bo.Optimizer.evaluation) ->
            if not (Bo.Cost_model.is_predicted e.Bo.Optimizer.metadata) then
              Bo.Cost_model.observe cm ~config ~objective:e.Bo.Optimizer.objective
                ~feasible:e.Bo.Optimizer.feasible ~pruned:e.Bo.Optimizer.pruned)
          configs evals;
        loop ()
  in
  loop ()

let run ~seed ?settings ?cost_settings ~space ~features ~eval () =
  (* Exact arm: the reference corpus. *)
  let exact_history =
    Bo.Optimizer.maximize (Rng.create seed) ?settings space ~f:eval
  in
  (* Filtered arm: same seed, same settings, judged by a freshly warmed
     filter. *)
  let cm = Bo.Cost_model.create ?settings:cost_settings ~seed ~features () in
  let filtered_history = filtered_history ~seed ?settings cm space ~f:eval in
  let exact_winner = winner_of_history exact_history in
  let filtered_winner = winner_of_history filtered_history in
  (* Post-hoc audit: evaluate every skipped candidate exactly. A skip that
     turns out feasible is a misprediction; a misprediction that also beats
     the filtered run's winner is the violation the contract forbids. *)
  let skipped = Bo.Cost_model.skipped_configs cm in
  let mispredicted = ref 0 and vetoes = ref 0 in
  List.iter
    (fun config ->
      let (e : Bo.Optimizer.evaluation) = eval config in
      if e.Bo.Optimizer.feasible && not e.Bo.Optimizer.pruned then begin
        incr mispredicted;
        let beats_winner =
          match filtered_winner with
          | None -> true
          | Some w -> e.Bo.Optimizer.objective > w.objective
        in
        if beats_winner then incr vetoes
      end)
    skipped;
  let winner_matched =
    match (exact_winner, filtered_winner) with
    | None, None -> true
    | Some a, Some b ->
        Bo.Config.equal a.config b.config
        && Int64.bits_of_float a.objective = Int64.bits_of_float b.objective
    | Some _, None | None, Some _ -> false
  in
  {
    evaluated = Bo.History.length exact_history;
    skipped = List.length skipped;
    exact_refiltered = List.length skipped;
    mispredicted_feasible = !mispredicted;
    feasible_winner_vetoes = !vetoes;
    winner_matched;
    exact_winner;
    filtered_winner;
    stats = Bo.Cost_model.stats cm;
  }

let summary r =
  Printf.sprintf
    "%d evaluated, %d skipped (%d re-checked): %d mispredicted-feasible, %d \
     feasible-winner vetoes, winner %s"
    r.evaluated r.skipped r.exact_refiltered r.mispredicted_feasible
    r.feasible_winner_vetoes
    (if r.winner_matched then "matched" else "DIVERGED")
