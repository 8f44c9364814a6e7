(* perfbench: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the environment fingerprint, every metric by name with its unit
   and sample count, the correctness checks, and as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans of the run are written to .perfbench/trace/. run.py builds
   this executable and calls it; see README.md. *)

let workloads = [ "compile_dnn"; "compile_tree"; "serve_steady"; "serve_shift" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref 0 and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time per run");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " usable cores, for the fingerprint");
      ("--rev", Arg.Set_string rev, " source revision, for the fingerprint");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  let domains = Harness.domains_of !workload in
  Homunculus_par.Par.set_default_jobs domains;
  Printf.printf
    "fingerprint: workload=%s seed=%d seconds=%g trace=%b nproc=%d \
     recommended_domains=%d ocaml=%s rev=%s domains=%d batch_size=%d\n%!"
    !workload !seed !seconds trace !nproc (Domain.recommended_domain_count ())
    Sys.ocaml_version !rev domains Harness.batch_size;
  Span.set_enabled trace;
  let attempted, failed =
    Harness.with_scratch ~workload:!workload (fun scratch ->
        let seed = !seed and seconds = !seconds in
        match !workload with
        | "compile_dnn" -> Compile_wl.(run dnn) ~seed ~seconds ~trace ~scratch
        | "compile_tree" -> Compile_wl.(run tree) ~seed ~seconds ~trace ~scratch
        | "serve_steady" -> Serve_wl.(run Steady) ~seed ~seconds ~trace ~scratch
        | _ -> Serve_wl.(run Shift) ~seed ~seconds ~trace ~scratch)
  in
  Span.set_enabled false;
  Out.set "peak_rss_mb" (Harness.peak_rss_mb ());
  if trace then begin
    let path = Harness.trace_path ~workload:!workload ~seed:!seed in
    Span.write ~path ~run:(Printf.sprintf "%s/%d" !workload !seed);
    Out.seti "trace.spans" (Span.recorded ());
    Printf.printf "spans: %d recorded, %d written to %s\n" (Span.recorded ())
      (Span.recorded () - !Span.overflow) path;
    print_endline "self time by span:";
    List.iter
      (fun (name, (a : Span.agg)) ->
        Printf.printf "  %-26s n=%-8d total %10.4f s  self %10.4f s\n" name a.Span.count
          (Clock.seconds_of_ns a.Span.total_ns) (Clock.seconds_of_ns a.Span.self_ns))
      (Span.summary ())
  end;
  Out.print ~trace ~attempted ~failed
