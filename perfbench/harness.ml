(* What every workload shares: the pass loop, medians, peak memory, and
   the per-run scratch directory. *)

module Report = Homunculus_serve.Report

(* The compile workloads search on a 2-domain pool with batches of 2. The
   serve workloads run on one domain: the drain is single-threaded, and on
   two domains serve_shift's re-searches were slower (2.8-3.2 s a pass
   against 2.3-2.7 s on one, 2-vCPU VM) and their time followed the host's
   CPU steal, since every parallel region waits for a descheduled domain. *)
let domains_of workload = if String.starts_with ~prefix:"compile" workload then 2 else 1
let batch_size = 2

(* Nearest-rank, like every percentile the benchmark reports. *)
let median xs = Report.percentile 50. (Array.of_list xs)

(* Median of [reps] timings of [f], in seconds. *)
let median_s ~reps f = median (List.init reps (fun _ -> snd (Clock.time f)))

(* Run [f 0], [f 1], ... until starting another pass would overrun
   [seconds] (judged by the last pass's duration, with room left for
   [reserve] more passes after the loop), but at least [min] times. [f]
   returns its result and the seconds it timed. *)
let passes ?(reserve = 0) ~seconds ~min f =
  let t0 = Clock.now_ns () in
  let rec go i acc =
    (* Each pass starts from a collected heap, so major-GC work left by the
       previous pass is not charged to this one. *)
    Gc.full_major ();
    let (r, timed), dt = Clock.time (fun () -> f i) in
    Printf.printf "pass %d: %.4f s timed, %.4f s with checks\n%!" i timed dt;
    let acc = r :: acc in
    let next_end = Clock.since_s t0 +. (float_of_int (1 + reserve) *. dt) in
    if i + 1 >= min && next_end > seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Everything a run writes lives under .perfbench/ in the working
   directory: scratch files in a per-process directory removed when the
   workload returns, span files under trace/. *)
let out_root = ".perfbench"

let with_scratch ~workload f =
  let dir =
    Filename.concat (Filename.concat out_root "tmp")
      (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  remove_tree dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let trace_path ~workload ~seed =
  let dir = Filename.concat out_root "trace" in
  mkdir_p dir;
  Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" workload seed)
