(* socybench: run one benchmark workload and print its metrics.

     socybench.exe --workload NAME --seed N --seconds S --trace 0|1
       [--nproc N] [--commit SHA] [--digest HEX] [--out DIR]

   The last line of standard output is the JSON result; lines before it
   start with '#'. The exit code is 1 when any result was wrong. Normally
   launched through socybench/run.py, which builds this executable and
   runs each workload in a fresh process. *)

let workloads =
  [
    ("table4-cold", (Table4.untraced Table4.cold, Table4.traced Table4.cold, Table4.usage Table4.cold));
    ("table4-par", (Table4.untraced Table4.par, Table4.traced Table4.par, Table4.usage Table4.par));
    ("grid-small", (Grid.untraced, Grid.traced, Grid.usage));
    ("serve-mix", (Serve_mix.untraced, Serve_mix.traced, Serve_mix.usage));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let commit = ref "unknown" and digest = ref "unknown" and out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall time");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--nproc", Arg.Set_int nproc, "N processors available to the run");
      ("--commit", Arg.Set_string commit, "SHA commit being measured");
      ("--digest", Arg.Set_string digest, "HEX digest of the measured sources");
      ("--out", Arg.Set_string out, "DIR where the span file is written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "socybench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "socybench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some (untraced, traced, usage) ->
      let traced_run = !trace = 1 in
      let prov =
        {
          Report.workload = !workload;
          seed = !seed;
          traced = traced_run;
          nproc = !nproc;
          commit = !commit;
          source_digest = !digest;
        }
      in
      Report.print_stamp prov ~usage;
      let tally = Measure.tally () in
      (* [per_eval_ms]: mean latency (untraced) or timed layers (traced);
         [baseline]: the traced work's own untraced figures, if measured. *)
      let metrics, per_eval_ms, throughput, baseline =
        if not traced_run then begin
          let e = untraced ~seed:!seed ~seconds:!seconds tally in
          let metrics = Report.end_to_end tally e in
          (metrics, e.Report.mean_ms, Measure.median_rate e.Report.rates, None)
        end
        else begin
          let t = traced ~seed:!seed ~seconds:!seconds tally in
          let spans = Spans.all () in
          let metrics, layers_ms =
            Report.per_layer ~spans ~n:t.Report.evals ~gc:t.Report.gc ~extra:t.Report.extra
          in
          let layers_ms = layers_ms +. t.Report.other_layers_ms in
          Printf.printf "# timed layers: %.4f ms per evaluation\n" layers_ms;
          (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
          let path = Filename.concat !out (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
          Spans.write_chrome path spans;
          Printf.printf "# spans: %d written to %s\n" (List.length spans) path;
          (metrics, layers_ms, t.Report.throughput, t.Report.baseline)
        end
      in
      let baseline =
        match baseline with
        | Some (ms, rate) -> Printf.sprintf ", \"baseline_per_eval_ms\": %.17g, \"baseline_throughput_per_s\": %.17g" ms rate
        | None -> ""
      in
      Printf.printf "# detail {\"per_eval_ms\": %.17g, \"throughput_per_s\": %.17g, \"error_ratio\": %.17g%s}\n"
        per_eval_ms throughput
        (float_of_int tally.Measure.failed /. float_of_int (max 1 tally.Measure.attempted))
        baseline;
      let correct = tally.Measure.failed = 0 in
      print_endline
        (Measure.result_line ~correct ~attempted:(max 1 tally.Measure.attempted)
           ~failed:tally.Measure.failed metrics);
      exit (if correct then 0 else 1)
