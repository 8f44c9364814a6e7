module Rng = Homunculus_util.Rng

type node =
  | Leaf of { distribution : float array }
  | Split of { feature : int; threshold : float; left : node; right : node }

type params = { max_depth : int; min_samples_leaf : int; m_try : int option }

let default_params = { max_depth = 12; min_samples_leaf = 2; m_try = None }

let rec depth = function
  | Leaf _ -> 0
  | Split { left; right; _ } -> 1 + Stdlib.max (depth left) (depth right)

let rec n_leaves = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> n_leaves left + n_leaves right

let rec n_nodes = function
  | Leaf _ -> 1
  | Split { left; right; _ } -> 1 + n_nodes left + n_nodes right

let candidate_features rng ~n_features ~m_try =
  match (rng, m_try) with
  | Some rng, Some m when m < n_features -> Rng.sample_indices rng ~n:n_features ~k:m
  | _, _ -> Array.init n_features (fun j -> j)

(* Split search. For each candidate feature in order, both learners sweep
   the node's samples in ascending value order and score every boundary
   between two distinct values; the first strictly lowest score wins, and
   its threshold is the midpoint of the two values. Features are copied
   once per fit into unboxed columns, so the sweeps allocate nothing. *)

let columns (x : float array array) n_features =
  Array.init n_features (fun f ->
      let col = Array.create_float (Array.length x) in
      Array.iteri (fun i row -> col.(i) <- row.(f)) x;
      col)

let rec predict_node node sample =
  match node with
  | Leaf { distribution } -> distribution
  | Split { feature; threshold; left; right } ->
      if sample.(feature) <= threshold then predict_node left sample
      else predict_node right sample

module Classifier = struct
  type t = { root : node; n_classes : int }

  (* The classifier scores a boundary from exact class counts, so the order
     among tied values cannot change a score: every column is sorted once
     per tree. [order.(f)] lists the samples by ascending column [f]. A node
     owns the same slice [lo, hi) of every [order.(f)]; splitting it is a
     stable partition of each slice, which keeps every slice sorted. *)
  let best_split ~cols ~order ~y ~counts ~left ~right ~lo ~hi ~features ~min_leaf =
    let n = hi - lo in
    let best_feature = ref (-1) and best_threshold = ref 0. and best_score = ref 0. in
    for k = 0 to Array.length features - 1 do
      let f = features.(k) in
      let col = cols.(f) and ord = order.(f) in
      Array.fill left 0 (Array.length left) 0.;
      Array.blit counts 0 right 0 (Array.length right);
      for cut = 1 to n - 1 do
        let i = ord.(lo + cut - 1) in
        let label = y.(i) in
        left.(label) <- left.(label) +. 1.;
        right.(label) <- right.(label) -. 1.;
        let v_prev = col.(i) and v_next = col.(ord.(lo + cut)) in
        if v_prev < v_next && cut >= min_leaf && n - cut >= min_leaf then begin
          let nl = float_of_int cut and nr = float_of_int (n - cut) in
          (* Gini impurity of each side, inline: a call would box its
             float arguments and result at every boundary. *)
          let gini_l = ref 1. and gini_r = ref 1. in
          for c = 0 to Array.length left - 1 do
            let pl = left.(c) /. nl and pr = right.(c) /. nr in
            gini_l := !gini_l -. (pl *. pl);
            gini_r := !gini_r -. (pr *. pr)
          done;
          let score = ((nl *. !gini_l) +. (nr *. !gini_r)) /. float_of_int n in
          if !best_feature < 0 || not (!best_score <= score) then begin
            best_feature := f;
            best_threshold := (v_prev +. v_next) /. 2.;
            best_score := score
          end
        end
      done
    done;
    if !best_feature < 0 then None else Some (!best_feature, !best_threshold)

  let partition ~order ~goes_left ~tmp ~lo ~hi =
    Array.iter
      (fun ord ->
        let l = ref lo and r = ref 0 in
        for k = lo to hi - 1 do
          let i = ord.(k) in
          if Bytes.get goes_left i = 'l' then begin
            ord.(!l) <- i;
            incr l
          end
          else begin
            tmp.(!r) <- i;
            incr r
          end
        done;
        Array.blit tmp 0 ord !l !r)
      order

  let fit ?rng ?(params = default_params) ~x ~y ~n_classes () =
    let n = Array.length x in
    if n = 0 then invalid_arg "Decision_tree.Classifier.fit: empty input";
    if Array.length y <> n then
      invalid_arg "Decision_tree.Classifier.fit: |x| <> |y|";
    let n_features = Array.length x.(0) in
    let cols = columns x n_features in
    let order =
      Array.map
        (fun col ->
          let o = Array.init n Fun.id in
          Array.stable_sort (fun i j -> Float.compare col.(i) col.(j)) o;
          o)
        cols
    in
    (* Any one slice lists the node's samples; a tree without features
       never splits its root. *)
    let members = if n_features = 0 then Array.init n Fun.id else order.(0) in
    let counts = Array.make n_classes 0. in
    let left = Array.make n_classes 0. and right = Array.make n_classes 0. in
    let goes_left = Bytes.make n 'r' and tmp = Array.make n 0 in
    let rec build lo hi d =
      let m = hi - lo in
      Array.fill counts 0 n_classes 0.;
      for k = lo to hi - 1 do
        let c = y.(members.(k)) in
        counts.(c) <- counts.(c) +. 1.
      done;
      let leaf () =
        Leaf { distribution = Homunculus_util.Stats.normalize counts }
      in
      let pure = Array.exists (fun c -> c = float_of_int m) counts in
      if d >= params.max_depth || pure || m < 2 * params.min_samples_leaf then
        leaf ()
      else
        let features = candidate_features rng ~n_features ~m_try:params.m_try in
        match
          best_split ~cols ~order ~y ~counts ~left ~right ~lo ~hi ~features
            ~min_leaf:params.min_samples_leaf
        with
        | None -> leaf ()
        | Some (feature, threshold) ->
            let col = cols.(feature) in
            let n_left = ref 0 in
            for k = lo to hi - 1 do
              let i = members.(k) in
              if col.(i) <= threshold then begin
                Bytes.set goes_left i 'l';
                incr n_left
              end
              else Bytes.set goes_left i 'r'
            done;
            let mid = lo + !n_left in
            if mid = lo || mid = hi then leaf ()
            else begin
              partition ~order ~goes_left ~tmp ~lo ~hi;
              (* ocamlopt evaluates this literal right to left: the right
                 subtree draws its candidate features from [rng] first. *)
              Split
                {
                  feature;
                  threshold;
                  left = build lo mid (d + 1);
                  right = build mid hi (d + 1);
                }
            end
    in
    let root = build 0 n 0 in
    { root; n_classes }

  let root t = t.root
  let n_classes t = t.n_classes
  let predict_proba t sample = predict_node t.root sample
  let predict t sample = Homunculus_util.Stats.argmax (predict_proba t sample)
  let predict_all t samples = Array.map (predict t) samples
end

module Regressor = struct
  type t = { root : node }

  (* The regressor's sweep sums targets in sorted order, so the order among
     tied values changes its rounding. It keeps the order the trees have
     always had: each node sorts its (value, target) pairs afresh with the
     ternary heap sort of OCaml 5.1's [Array.sort], comparing values only.
     This copy holds the pairs in two unboxed arrays and makes the same
     comparisons and moves, so it yields the same order. *)

  (* [Float.compare a b < 0]: nan sorts below every other value. *)
  let[@inline] lt (a : float) b = a < b || (a <> a && b = b)

  let move (keys : float array) (ys : float array) dst src =
    keys.(dst) <- keys.(src);
    ys.(dst) <- ys.(src)

  (* Index of the largest child of [i] in the heap [keys.(0 .. l-1)], or -1
     when [i] has none. *)
  let maxson keys l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if lt keys.(i31) keys.(i31 + 1) then i31 + 1 else i31 in
      if lt keys.(x) keys.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && lt keys.(i31) keys.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1

  (* Sorts the pairs [(keys.(k), ys.(k))] for [k < l] by key. *)
  let heap_sort keys (ys : float array) l =
    for i0 = ((l + 1) / 3) - 1 downto 0 do
      let ek = keys.(i0) and ey = ys.(i0) in
      let i = ref i0 and sinking = ref true in
      while !sinking do
        let j = maxson keys l !i in
        if j >= 0 && lt ek keys.(j) then begin
          move keys ys !i j;
          i := j
        end
        else sinking := false
      done;
      keys.(!i) <- ek;
      ys.(!i) <- ey
    done;
    for last = l - 1 downto 2 do
      let ek = keys.(last) and ey = ys.(last) in
      move keys ys last 0;
      let i = ref 0 and sinking = ref true in
      while !sinking do
        let j = maxson keys last !i in
        if j < 0 then sinking := false
        else begin
          move keys ys !i j;
          i := j
        end
      done;
      let rising = ref true in
      while !rising do
        let father = (!i - 1) / 3 in
        if lt keys.(father) ek then begin
          move keys ys !i father;
          i := father;
          rising := father > 0
        end
        else rising := false
      done;
      keys.(!i) <- ek;
      ys.(!i) <- ey
    done;
    if l > 1 then begin
      let ek = keys.(1) and ey = ys.(1) in
      move keys ys 1 0;
      keys.(0) <- ek;
      ys.(0) <- ey
    end

  let best_split ~cols ~y ~keys ~ys ~indices ~features ~min_leaf =
    let n = Array.length indices in
    let best_feature = ref (-1) and best_threshold = ref 0. and best_score = ref 0. in
    for k = 0 to Array.length features - 1 do
      let f = features.(k) in
      let col = cols.(f) in
      for s = 0 to n - 1 do
        let i = indices.(s) in
        keys.(s) <- col.(i);
        ys.(s) <- y.(i)
      done;
      heap_sort keys ys n;
      let sum_r = ref 0. and sq_r = ref 0. in
      for s = 0 to n - 1 do
        let v = ys.(s) in
        sum_r := !sum_r +. v;
        sq_r := !sq_r +. (v *. v)
      done;
      let sum_l = ref 0. and sq_l = ref 0. in
      for cut = 1 to n - 1 do
        let v = ys.(cut - 1) in
        sum_l := !sum_l +. v;
        sq_l := !sq_l +. (v *. v);
        sum_r := !sum_r -. v;
        sq_r := !sq_r -. (v *. v);
        let v_prev = keys.(cut - 1) and v_next = keys.(cut) in
        if v_prev < v_next && cut >= min_leaf && n - cut >= min_leaf then begin
          let nl = float_of_int cut and nr = float_of_int (n - cut) in
          (* Sum of squared errors on each side. *)
          let sse_l = !sq_l -. (!sum_l *. !sum_l /. nl) in
          let sse_r = !sq_r -. (!sum_r *. !sum_r /. nr) in
          let score = sse_l +. sse_r in
          if !best_feature < 0 || not (!best_score <= score) then begin
            best_feature := f;
            best_threshold := (v_prev +. v_next) /. 2.;
            best_score := score
          end
        end
      done
    done;
    if !best_feature < 0 then None else Some (!best_feature, !best_threshold)

  (* Splits [indices] by [col.(i) <= threshold], keeping their order. *)
  let partition ~col ~indices ~threshold =
    let n_left = ref 0 in
    Array.iter (fun i -> if col.(i) <= threshold then incr n_left) indices;
    let li = Array.make !n_left 0 and ri = Array.make (Array.length indices - !n_left) 0 in
    let l = ref 0 and r = ref 0 in
    Array.iter
      (fun i ->
        if col.(i) <= threshold then begin
          li.(!l) <- i;
          incr l
        end
        else begin
          ri.(!r) <- i;
          incr r
        end)
      indices;
    (li, ri)

  let mean_of ~y indices =
    let acc = ref 0. in
    for k = 0 to Array.length indices - 1 do
      acc := !acc +. y.(indices.(k))
    done;
    !acc /. float_of_int (Array.length indices)

  let fit ?rng ?(params = default_params) ~x ~y () =
    let n = Array.length x in
    if n = 0 then invalid_arg "Decision_tree.Regressor.fit: empty input";
    if Array.length y <> n then
      invalid_arg "Decision_tree.Regressor.fit: |x| <> |y|";
    let n_features = Array.length x.(0) in
    let cols = columns x n_features in
    let keys = Array.make n 0. and ys = Array.make n 0. in
    let rec build indices d =
      let leaf () = Leaf { distribution = [| mean_of ~y indices |] } in
      if d >= params.max_depth || Array.length indices < 2 * params.min_samples_leaf
      then leaf ()
      else
        let features = candidate_features rng ~n_features ~m_try:params.m_try in
        match
          best_split ~cols ~y ~keys ~ys ~indices ~features
            ~min_leaf:params.min_samples_leaf
        with
        | None -> leaf ()
        | Some (feature, threshold) ->
            let li, ri = partition ~col:cols.(feature) ~indices ~threshold in
            if Array.length li = 0 || Array.length ri = 0 then leaf ()
            else
              (* Right subtree first, as in the classifier. *)
              Split
                {
                  feature;
                  threshold;
                  left = build li (d + 1);
                  right = build ri (d + 1);
                }
    in
    { root = build (Array.init n (fun i -> i)) 0 }

  let root t = t.root
  let predict t sample = (predict_node t.root sample).(0)
end
