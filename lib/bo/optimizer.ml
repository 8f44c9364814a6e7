module Rng = Homunculus_util.Rng
module Par = Homunculus_par.Par

type settings = {
  n_init : int;
  n_iter : int;
  pool_size : int;
  local_search_frac : float;
  surrogate_trees : int;
  batch_size : int;
  refit_every : int;
  refit_threshold : int;
}

let default_settings =
  {
    n_init = 10;
    n_iter = 40;
    pool_size = 200;
    local_search_frac = 0.5;
    surrogate_trees = 30;
    batch_size = 1;
    refit_every = 1;
    refit_threshold = 0;
  }

(* Warm-start arithmetic for replay-then-continue: a re-search that replays
   [replayed] prior journal records re-derives those proposals as cache hits
   (same seed, same stream), so extending [n_iter] by the replayed guided
   tail leaves exactly [fresh] new guided evaluations to run live once the
   replay prefix is exhausted. When [replayed >= n_init] the whole warm-up
   phase is cache hits — the "skip n_init" rule costs nothing to honor
   because the warm-up proposals were already paid for. *)
let continuation settings ~replayed ~fresh =
  if fresh < 0 then invalid_arg "Bo.Optimizer.continuation: fresh < 0";
  let replayed = Stdlib.max 0 replayed in
  let guided_replayed = Stdlib.max 0 (replayed - settings.n_init) in
  { settings with n_iter = guided_replayed + fresh }

type evaluation = {
  objective : float;
  feasible : bool;
  pruned : bool;
  metadata : (string * float) list;
}

let record history space config { objective; feasible; pruned; metadata } =
  History.add history ~config
    ~encoded:(Design_space.encode space config)
    ~objective ~feasible ~pruned ~metadata ()

let random_search rng ~n space ~f =
  let history = History.create () in
  for _ = 1 to n do
    let config = Design_space.sample rng space in
    record history space config (f config)
  done;
  history

let fresh_candidate rng space history ~pending =
  (* Avoid re-evaluating an exact duplicate (including candidates already
     chosen for the in-flight batch); give up after a few tries for small
     discrete spaces. *)
  let rec go attempts =
    let c = Design_space.sample rng space in
    if
      attempts <= 0
      || (not (History.mem_config history c))
         && not (List.exists (Config.equal c) pending)
    then c
    else go (attempts - 1)
  in
  go 8

type t = {
  rng : Rng.t;
  settings : settings;
  par : Par.pool;
  space : Design_space.t;
  history : History.t;
  (* The surrogate pair of the last refit and the history length it saw.
     Its RNG streams were drawn at that refit; its trees are built the
     first time a round needs a score. *)
  mutable fitted : (Surrogate.t Lazy.t * Feasibility.t Lazy.t * int) option;
  mutable refits : int;
  mutable pending : Config.t array option;  (* proposed, not yet told *)
}

let create rng ?(settings = default_settings) ?pool space =
  if settings.n_init <= 0 then invalid_arg "Bo.Optimizer.create: n_init <= 0";
  if settings.batch_size <= 0 then
    invalid_arg "Bo.Optimizer.create: batch_size <= 0";
  if settings.refit_every <= 0 then
    invalid_arg "Bo.Optimizer.create: refit_every <= 0";
  {
    rng;
    settings;
    par = (match pool with Some p -> p | None -> Par.default ());
    space;
    history = History.create ();
    fitted = None;
    refits = 0;
    pending = None;
  }

let history t = t.history
let refits t = t.refits

(* Phase 1: uniform random initialization, [batch_size] at a time. Proposals
   are drawn sequentially from [rng], so the stream is independent of how
   the batch is later evaluated. *)
let propose_warmup t k =
  let pending = ref [] in
  Array.init k (fun _ ->
      let c = fresh_candidate t.rng t.space t.history ~pending:!pending in
      pending := c :: !pending;
      c)

(* Phase 2: one surrogate-guided round. Each round proposes up to
   [batch_size] candidates from one surrogate (constant-liar batching), so a
   batched run spends the same evaluation budget over [n_iter / batch_size]
   refits — and once the history outgrows [refit_threshold], the surrogate
   pair is additionally reused until [refit_every] fresh evaluations have
   accumulated, amortizing forest fits over several rounds. A refit round
   draws the pair's per-tree streams from [rng] at once, so the stream is
   the same whether or not the trees are ever built; reused rounds consume
   no RNG for fitting. Determinism is per (seed, settings), as always. *)
let propose_guided t k =
  let { rng; settings; par; space; history; _ } = t in
  let len = History.length history in
  let surrogate, feas_model =
    match t.fitted with
    | Some (s, fm, fit_len)
      when len > settings.refit_threshold
           && len - fit_len < settings.refit_every ->
        (s, fm)
    | Some _ | None ->
        let x, y, feasible_flags = History.training_arrays history in
        (* The objective model learns from the feasible slice only:
           infeasible entries carry placeholder objectives (failure tags,
           predicted-infeasible commits) that nothing downstream consumes.
           The feasibility model still sees every entry. *)
        let keep = ref [] in
        Array.iteri
          (fun i flag -> if flag then keep := i :: !keep)
          feasible_flags;
        let sel = Array.of_list (List.rev !keep) in
        let s =
          Surrogate.fit_deferred rng ~n_trees:settings.surrogate_trees ~pool:par
            ~x:(Array.map (fun i -> x.(i)) sel)
            ~y:(Array.map (fun i -> y.(i)) sel)
            ()
        in
        let fm =
          Feasibility.fit_deferred rng ~n_trees:settings.surrogate_trees ~pool:par ~x
            ~feasible:feasible_flags ()
        in
        t.refits <- t.refits + 1;
        t.fitted <- Some (s, fm, len);
        (s, fm)
  in
  let incumbent = History.best history in
  let best_value =
    match incumbent with
    | Some e -> e.History.objective
    | None -> neg_infinity
  in
  (* Candidate pool: uniform samples plus neighbors of the incumbent, drawn
     sequentially so the RNG stream is schedule-independent. *)
  let n_local =
    match incumbent with
    | None -> 0
    | Some _ ->
        int_of_float
          (settings.local_search_frac *. float_of_int settings.pool_size)
  in
  let candidates =
    Array.init settings.pool_size (fun i ->
        match incumbent with
        | Some e when i < n_local ->
            Design_space.neighbor rng space e.History.config
        | Some _ | None -> Design_space.sample rng space)
  in
  (* Only a configuration not yet evaluated gets a score; duplicates stay at
     -inf. The trees are built only when some candidate needs a score: once
     a small discrete space is exhausted, every pool candidate is a
     duplicate and the round builds no forest at all. Forcing happens here,
     on the calling domain, because a lazy value forced from two domains at
     once raises. Scoring is pure, so it fans out over the pool. *)
  let fresh = Array.map (fun c -> not (History.mem_config history c)) candidates in
  let scores = Array.make settings.pool_size neg_infinity in
  if Array.exists Fun.id fresh then begin
    let surrogate = Lazy.force surrogate and feas_model = Lazy.force feas_model in
    Par.parallel_for ~pool:par ~lo:0 ~hi:settings.pool_size (fun i ->
        if fresh.(i) then begin
          let point = Design_space.encode space candidates.(i) in
          let mean, std = Surrogate.predict surrogate point in
          let ei =
            Acquisition.expected_improvement ~mean ~std ~best:best_value
          in
          let p_feas = Feasibility.prob_feasible feas_model point in
          scores.(i) <-
            (if ei = infinity then p_feas (* no incumbent: chase feasibility *)
             else ei *. p_feas)
        end)
  end;
  (* Constant-liar batch proposal: pick the top-scoring candidate, then
     pretend it was already evaluated at the incumbent's value (the CL-max
     lie) and pick again. The lie leaves [best_value] — and hence every
     remaining EI score — unchanged, so without refitting the surrogate it
     reduces to selecting the k best distinct candidates; its only effect is
     that a proposal cannot be picked twice. Ties keep the lowest pool index,
     matching the sequential scan. *)
  let chosen = ref [] in
  for _ = 1 to k do
    let best_i = ref (-1) in
    let best_s = ref neg_infinity in
    Array.iteri
      (fun i s ->
        if s > !best_s && not (List.exists (Config.equal candidates.(i)) !chosen)
        then begin
          best_i := i;
          best_s := s
        end)
      scores;
    let c =
      if !best_i >= 0 then begin
        scores.(!best_i) <- neg_infinity;
        candidates.(!best_i)
      end
      else
        (* Every pool candidate is a duplicate: fall back to fresh uniform
           samples, as the sequential loop did. *)
        fresh_candidate rng space history ~pending:!chosen
    in
    chosen := c :: !chosen
  done;
  Array.of_list (List.rev !chosen)

(* Every proposal is told before the next, so the history length is the
   number of configurations proposed so far. Warm-up batches never straddle
   into the guided phase. *)
let propose t =
  if Option.is_some t.pending then
    invalid_arg "Bo.Optimizer.propose: previous proposal not told";
  let { n_init; n_iter; batch_size; _ } = t.settings in
  let n = History.length t.history in
  let batch =
    if n < n_init then propose_warmup t (Stdlib.min batch_size (n_init - n))
    else if n < n_init + n_iter then
      propose_guided t (Stdlib.min batch_size (n_init + n_iter - n))
    else [||]
  in
  if Array.length batch > 0 then t.pending <- Some batch;
  Array.mapi (fun i config -> (n + i, config)) batch

let tell t evals =
  match t.pending with
  | None -> invalid_arg "Bo.Optimizer.tell: nothing proposed"
  | Some batch ->
      if Array.length evals <> Array.length batch then
        invalid_arg "Bo.Optimizer.tell: wrong number of evaluations";
      t.pending <- None;
      Array.iteri (fun i config -> record t.history t.space config evals.(i)) batch

let maximize rng ?settings ?pool space ~f =
  let t = create rng ?settings ?pool space in
  let rec loop () =
    match propose t with
    | [||] -> t.history
    | batch ->
        tell t (Par.parallel_map ~pool:t.par ~chunk:1 (fun (_, c) -> f c) batch);
        loop ()
  in
  loop ()
