(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent) plus the id of the workload run it
   belongs to. Spans nest through an explicit stack, so a span opened while
   another is open becomes its child; self time is a span's duration minus
   the time its direct children cover. Per-name totals are folded in as
   spans close, so they cover every traced span even when the raw store is
   full. [enter]/[exit] allocate nothing, which keeps the per-step spans of
   the serve workloads cheap. Recording is off until [set_enabled true]. *)

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

let enabled = ref false
let set_enabled b = enabled := b

let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_list = ref [||]
let aggs = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some id -> id
  | None ->
      let id = Array.length !name_list in
      Hashtbl.add names s id;
      name_list := Array.append !name_list [| s |];
      aggs := Array.append !aggs [| { count = 0; total_ns = 0; self_ns = 0 } |];
      id

(* Open spans. *)
let max_depth = 64
let st_id = Array.make max_depth 0
let st_name = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0

(* Closed spans, in closing order, up to [capacity]. *)
let capacity = 250_000
let s_name = Array.make capacity 0
let s_start = Array.make capacity 0
let s_end = Array.make capacity 0
let s_parent = Array.make capacity 0
let s_id = Array.make capacity 0
let stored = ref 0
let overflow = ref 0
let next_id = ref 0

let enter name_id =
  if !enabled then begin
    let d = !depth in
    if d >= max_depth then failwith "Span.enter: nesting too deep";
    st_id.(d) <- !next_id;
    incr next_id;
    st_name.(d) <- name_id;
    st_child.(d) <- 0;
    depth := d + 1;
    st_start.(d) <- Clock.now_ns ()
  end

let exit () =
  if !enabled then begin
    let t = Clock.now_ns () in
    let d = !depth - 1 in
    depth := d;
    let dur = t - st_start.(d) in
    let a = !aggs.(st_name.(d)) in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + dur;
    a.self_ns <- a.self_ns + dur - st_child.(d);
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    let k = !stored in
    if k < capacity then begin
      s_name.(k) <- st_name.(d);
      s_start.(k) <- st_start.(d);
      s_end.(k) <- t;
      s_parent.(k) <- (if d > 0 then st_id.(d - 1) else -1);
      s_id.(k) <- st_id.(d);
      stored := k + 1
    end
    else incr overflow
  end

let with_ name_id f =
  enter name_id;
  Fun.protect ~finally:exit f

let agg s =
  match Hashtbl.find_opt names s with
  | Some id -> Some !aggs.(id)
  | None -> None

let count s = match agg s with Some a -> a.count | None -> 0
let self_s s = match agg s with Some a -> Clock.seconds_of_ns a.self_ns | None -> 0.
let recorded () = !next_id

(* One line per name: count, total and self seconds — the self-time table
   the traced run prints. *)
let summary () =
  Array.to_list
    (Array.mapi (fun i n -> (n, !aggs.(i))) !name_list)
  |> List.filter (fun (_, a) -> a.count > 0)

(* Tab-separated, one span per line, times in ns from the first stored
   start; [run] tags every line so traces of several runs can share a
   file. *)
let write ~path ~run =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\trun\n";
      let base = ref max_int in
      for k = 0 to !stored - 1 do
        base := Stdlib.min !base s_start.(k)
      done;
      for k = 0 to !stored - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%s\n" s_id.(k)
          !name_list.(s_name.(k)) (s_start.(k) - !base) (s_end.(k) - !base)
          s_parent.(k) run
      done)
