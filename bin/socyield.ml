(* socyield — command-line driver for the combinatorial yield-evaluation
   method.

   Subcommands:
     eval      evaluate the yield of a fault tree or built-in benchmark
     sweep     evaluate a grid of runs in parallel across domains
     campaign  run named grids into a stored artifact history; trend reports
     serve     long-running yield daemon over a Unix-domain socket
     query   client for a running serve daemon
     top     live console view of a running serve daemon
     report  pretty-print or diff metrics/trace JSON files
     mc      Monte Carlo baseline estimate
     orders  compare variable orderings on one instance
     list    list the built-in benchmark instances
     dot     export the fault tree or the ROMDD as Graphviz *)

module C = Socy_logic.Circuit
module P = Socy_core.Pipeline
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module Model = Socy_defects.Model
module Mdd = Socy_mdd.Mdd
module Text_table = Socy_util.Text_table
module Obs = Socy_obs.Obs
module Sink = Socy_obs.Sink
module Json = Socy_obs.Json
module Trace = Socy_obs.Trace
module Doc = Socy_obs.Doc
module Log = Socy_obs.Log
module Proto = Socy_serve.Protocol
module Server = Socy_serve.Server
module Campaign = Socy_campaign.Campaign
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments — the term groups live in cli_terms.ml            *)
(* ------------------------------------------------------------------ *)

open Cli_terms.Model
open Cli_terms.Budget
open Cli_terms.Ordering
open Cli_terms.Out

(* ------------------------------------------------------------------ *)
(* Run reports (--metrics)                                             *)
(* ------------------------------------------------------------------ *)

let report_json (q : Proto.query) (r : P.report) =
  let ite_calls = r.P.ite_cache_hits + r.P.ite_cache_misses in
  let hit_rate =
    if ite_calls = 0 then 0.0
    else float_of_int r.P.ite_cache_hits /. float_of_int ite_calls
  in
  Json.Obj
    [
      ("schema", Json.String "socyield-report/1");
      ("source", Json.String (source_name q));
      ( "config",
        Json.Obj
          [
            ("epsilon", Json.Float q.Proto.epsilon);
            ("mv_order", Json.String (Scheme.mv_order_name q.Proto.mv_order));
            ("bit_order", Json.String (Scheme.bit_order_name q.Proto.bit_order));
            ("reorder", Json.Bool q.Proto.reorder);
          ] );
      (* The deterministic fields come from the serve protocol's canonical
         list, so a daemon reply's [result.report] and this document agree
         key-for-key (the CI smoke test diffs them); [cpu_seconds] is
         timing, which the protocol keeps out of cacheable payloads. *)
      ( "report",
        Json.Obj
          (Proto.report_fields r @ [ ("cpu_seconds", Json.Float r.P.cpu_seconds) ])
      );
      ( "stage_times_s",
        Json.Obj (List.map (fun (k, s) -> (k, Json.Float s)) r.P.stage_times) );
      ( "stage_gc",
        Json.Obj
          (List.map
             (fun (k, d) -> (k, Socy_obs.Memory.delta_to_json d))
             r.P.stage_gc) );
      ( "engine",
        Json.Obj
          [
            ("unique_table_hits", Json.Int r.P.unique_hits);
            ("ite_cache_hits", Json.Int r.P.ite_cache_hits);
            ("ite_cache_misses", Json.Int r.P.ite_cache_misses);
            ("ite_cache_hit_rate", Json.Float hit_rate);
            ("and_or_fast_hits", Json.Int r.P.and_or_fast_hits);
            ("gc_runs", Json.Int r.P.gc_runs);
            ("gc_reclaimed", Json.Int r.P.gc_reclaimed);
          ] );
      ("metrics", Sink.snapshot_to_json (Obs.snapshot ()));
    ]

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

let eval_cmd =
  let run query node_limit par_domains metrics metrics_out trace_out =
    let q = query () in
    let { Proto.circuit; model; _ } = resolve q in
    let config =
      Cli_terms.checked (fun () ->
          P.Config.make ~epsilon:q.Proto.epsilon ~node_limit
            ~mv_order:q.Proto.mv_order ~bit_order:q.Proto.bit_order
            ~reorder:q.Proto.reorder ~par_domains ())
    in
    warn_par_fallback ~reorder:q.Proto.reorder par_domains;
    if metrics <> None || trace_out <> None then Obs.set_enabled true;
    let source = source_name q in
    match Cli_terms.checked (fun () -> P.run ~config circuit model) with
    | Error f ->
        (match metrics with
        | Some `Json ->
            let _, msg, details = Proto.failure_error f in
            with_metrics_channel metrics_out (fun oc ->
                Json.to_channel oc
                  (Json.Obj
                     ([
                        ("schema", Json.String "socyield-report/1");
                        ("source", Json.String source);
                        ("error", Json.String msg);
                      ]
                     @ details)))
        | Some `Pretty | None -> ());
        (* A failed run's timeline is exactly what the budget post-mortem
           needs, so the trace is written on this path too. *)
        write_trace trace_out;
        Printf.eprintf "FAILED — %s\n" (P.failure_to_string f);
        exit 1
    | Ok r ->
        (* In JSON-to-stdout mode the document must be the only output. *)
        let json_on_stdout = metrics = Some `Json && metrics_out = None in
        if not json_on_stdout then begin
          Printf.printf "yield           in [%.6f, %.6f]  (error bound %.2g)\n"
            r.P.yield_lower r.P.yield_upper q.Proto.epsilon;
          Printf.printf "P(not usable)   %.6f\n" r.P.p_unusable;
          Printf.printf "truncation M    %d lethal defects analyzed\n" r.P.m;
          Printf.printf "P_lethal        %.4f\n" r.P.p_lethal;
          Printf.printf "binary vars     %d (%d multiple-valued variables)\n"
            r.P.num_binary_vars r.P.num_groups;
          Printf.printf "G gates         %d\n" r.P.gate_count;
          Printf.printf "coded ROBDD     %s nodes (peak %s)\n"
            (Text_table.group_thousands r.P.robdd_size)
            (Text_table.group_thousands r.P.robdd_peak);
          if q.Proto.reorder then
            Printf.printf "reordering      %d sift run(s), %s swap(s)\n"
              r.P.reorder_runs
              (Text_table.group_thousands r.P.reorder_swaps);
          Printf.printf "ROMDD           %s nodes\n"
            (Text_table.group_thousands r.P.romdd_size);
          Printf.printf "CPU time        %.2f s\n" r.P.cpu_seconds
        end;
        (match metrics with
        | None -> ()
        | Some `Json ->
            with_metrics_channel metrics_out (fun oc ->
                Json.to_channel oc (report_json q r))
        | Some `Pretty ->
            with_metrics_channel metrics_out (fun oc ->
                Printf.fprintf oc "\nstage times:\n";
                List.iter
                  (fun (k, s) -> Printf.fprintf oc "  %-14s %9.4f s\n" k s)
                  r.P.stage_times;
                Printf.fprintf oc "stage GC (minor/major collections, MB promoted):\n";
                List.iter
                  (fun (k, (d : Socy_obs.Memory.gc_delta)) ->
                    Printf.fprintf oc "  %-14s %5d / %-3d  %8.2f MB\n" k
                      d.Socy_obs.Memory.minor_collections
                      d.Socy_obs.Memory.major_collections
                      (d.Socy_obs.Memory.promoted_words *. 8.0 /. 1048576.0))
                  r.P.stage_gc;
                Sink.pretty oc ~label:source (Obs.snapshot ())));
        write_trace trace_out
  in
  let term =
    Term.(
      const run $ Cli_terms.eval_query_term $ node_limit_arg $ par_domains_arg
      $ metrics_arg $ metrics_out_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate the yield of a fault-tolerant system-on-chip")
    term

(* ------------------------------------------------------------------ *)
(* Grid commands: sweep, tune and campaign run                         *)
(* ------------------------------------------------------------------ *)

(* Every grid goes through Campaign.run, whose only failure is grid
   validation: a usage error. *)
let run_grid ?wall_budget ?progress ~route ~domains (grid : Campaign.grid) =
  match Campaign.validate ~route grid with
  | Error msg -> Cli_terms.usage_error "%s" msg
  | Ok () ->
      warn_par_fallback ~reorder:grid.Campaign.reorder grid.Campaign.par_domains;
      Result.get_ok (Campaign.run ~route ~domains ?wall_budget ?progress grid)

(* The CPU cell of a grid row: its own seconds, or "=" and what sets the
   point whose build it reused apart from its own, e.g. "= wvr". *)
let cpu_cell rows (p : Campaign.point) (s : Campaign.success) =
  match s.Campaign.shared_with with
  | None -> Printf.sprintf "%.2f" s.Campaign.cpu_s
  | Some label -> (
      match
        List.find_opt
          (fun (r : Campaign.row) -> Campaign.point_label r.Campaign.point = label)
          rows
      with
      | Some { Campaign.point = q; _ } when q <> p ->
          let differs show get =
            if get q <> get p then [ show (get q) ] else []
          in
          String.concat " "
            ("="
             :: differs (Printf.sprintf "l=%g") (fun x -> x.Campaign.lambda)
            @ differs (Printf.sprintf "e=%g") (fun x -> x.Campaign.epsilon)
            @ differs Scheme.mv_order_name (fun x -> x.Campaign.mv))
      | _ -> "= " ^ label)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

(* A campaign without a store. Rows land in grid order whatever the
   completion order was, so parallel output is stable and
   --check-sequential can diff it against a one-domain rerun. *)
let sweep_cmd =
  let check_seq_arg =
    let doc =
      "Rerun the grid on a single domain and fail (exit 1) unless every \
       yield is bit-identical to the parallel run."
    in
    Arg.(value & flag & info [ "check-sequential" ] ~doc)
  in
  let output_arg =
    let doc =
      "Output format: 'table' or 'json' (the socyield-campaign/1 document)."
    in
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
      & info [ "output" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc = "Write the sweep output to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run grid domains wall_budget check_seq output out metrics metrics_out
      trace_out progress =
    if metrics <> None || trace_out <> None then Obs.set_enabled true;
    let c =
      run_grid ~route:P.Coded ~domains ?wall_budget ?progress
        (grid ~name:"sweep" ~cpu_limit:None)
    in
    let seq = if check_seq then Some (Campaign.sequential_rerun c) else None in
    let seq_summary oc ((s : Campaign.t), (d : Campaign.drift)) =
      Printf.fprintf oc
        "sequential rerun: %.2f s wall -> speedup %.2fx, max |dY| = %.3g, %d \
         status mismatch(es)\n"
        s.Campaign.wall_s
        (s.Campaign.wall_s /. Float.max c.Campaign.wall_s 1e-9)
        d.Campaign.max_drift d.Campaign.status_mismatches
    in
    with_metrics_channel out (fun oc ->
        match output with
        | `Json ->
            Json.to_channel oc (Campaign.to_json c);
            output_char oc '\n';
            Option.iter (seq_summary stderr) seq
        | `Table ->
            let t =
              Text_table.create
                ~aligns:[ Left; Right; Right; Left; Right; Right; Right; Right; Left ]
                [ "source"; "lambda"; "eps"; "mv"; "M"; "yield [lo, hi]";
                  "ROMDD"; "CPU (s)"; "status" ]
            in
            List.iter
              (fun ({ Campaign.point = p; result } : Campaign.row) ->
                let cells =
                  match result with
                  | Ok s ->
                      [
                        string_of_int s.Campaign.m;
                        Printf.sprintf "[%.6f, %.6f]" s.Campaign.yield_lower
                          s.Campaign.yield_upper;
                        Text_table.group_thousands s.Campaign.romdd_size;
                        cpu_cell c.Campaign.rows p s;
                      ]
                  | Error _ -> [ "-"; "-"; "-"; "-" ]
                in
                Text_table.add_row t
                  ((p.Campaign.source
                   :: Printf.sprintf "%g" p.Campaign.lambda
                   :: Printf.sprintf "%g" p.Campaign.epsilon
                   :: Scheme.mv_order_name p.Campaign.mv
                   :: cells)
                  @ [ Campaign.status_name result ]))
              c.Campaign.rows;
            output_string oc (Text_table.render t);
            let cpu_total =
              List.fold_left
                (fun acc (r : Campaign.row) ->
                  match r.Campaign.result with
                  | Ok s -> acc +. s.Campaign.cpu_s
                  | Error _ -> acc)
                0.0 c.Campaign.rows
            in
            Printf.fprintf oc
              "%d jobs on %d domains: %.2f s wall (%.2f s of pipeline CPU)\n"
              (List.length c.Campaign.rows)
              c.Campaign.domains c.Campaign.wall_s cpu_total;
            Option.iter (seq_summary oc) seq);
    (match metrics with
    | None -> ()
    | Some `Json ->
        with_metrics_channel metrics_out (fun oc ->
            Json.to_channel oc (Sink.snapshot_to_json (Obs.snapshot ())))
    | Some `Pretty ->
        with_metrics_channel metrics_out (fun oc ->
            Sink.pretty oc ~label:"sweep" (Obs.snapshot ())));
    write_trace trace_out;
    match seq with
    | Some (_, d)
      when d.Campaign.max_drift > 1e-12 || d.Campaign.status_mismatches > 0 ->
        Printf.eprintf
          "sweep: parallel run diverged from sequential (max |dY| = %.3g, %d \
           status mismatch(es))\n"
          d.Campaign.max_drift d.Campaign.status_mismatches;
        exit 1
    | _ -> ()
  in
  let term =
    Term.(
      const run $ Cli_terms.grid_term $ domains_arg $ wall_budget_arg
      $ check_seq_arg $ output_arg $ out_arg $ metrics_arg $ metrics_out_arg
      $ trace_arg $ progress_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Evaluate a grid of (benchmark x lambda x epsilon x ordering) runs in \
          parallel across domains (cf. Tables 2-4 and the yield curves)")
    term

(* ------------------------------------------------------------------ *)
(* tune                                                                *)
(* ------------------------------------------------------------------ *)

(* The ordering autotuner: tournament the Table 2 static mv orderings,
   each with and without dynamic reordering, per benchmark family, and
   persist the winners to the on-disk registry that --tuned resolves.
   The two variants are two grids that differ only in [reorder]. The
   winner is deterministic: among completed runs, lowest ROBDD peak, then
   lowest final size, then the earlier candidate (lower mv index, static
   before sifted) — and the yields are bit-identical across the whole grid
   row for a family (reordering is walked back before the ROMDD
   conversion), so only memory is at stake. The ROBDD figures rank, so
   both grids run on the coded route. *)
let tune_cmd =
  let module Registry = Socy_order.Registry in
  let robdd (s : Campaign.success) =
    match s.Campaign.build with
    | Campaign.Coded { robdd_peak; robdd_size } -> (robdd_peak, robdd_size)
    | Campaign.Direct _ -> invalid_arg "tune: a direct-route row has no ROBDD"
  in
  let run benchmarks lambda alpha epsilon node_limit domains registry =
    let existing =
      try Registry.load registry with Failure msg -> Cli_terms.usage_error "%s" msg
    in
    let grid =
      {
        Campaign.name = "tune";
        benchmarks;
        lambdas = [ lambda ];
        epsilons = [ epsilon ];
        mv_orders = Scheme.table2_mv_orders;
        bit_order = Scheme.Ml;
        alpha;
        node_limit;
        cpu_limit = None;
        reorder = false;
        par_domains = 1;
      }
    in
    let static = run_grid ~route:P.Coded ~domains grid in
    let sifted =
      run_grid ~route:P.Coded ~domains { grid with Campaign.reorder = true }
    in
    (* Candidates in tie-break order: family, mv, static before sifted. *)
    let rows =
      List.concat
        (List.map2
           (fun s r -> [ (false, s); (true, r) ])
           static.Campaign.rows sifted.Campaign.rows)
    in
    let tuned, missing =
      List.fold_left
        (fun (acc, missing) family ->
          let candidates =
            List.filter_map
              (fun (reorder, ({ Campaign.point = p; result } : Campaign.row)) ->
                match result with
                | Ok s when p.Campaign.source = family ->
                    Some (p.Campaign.mv, reorder, s)
                | _ -> None)
              rows
          in
          let winner =
            List.fold_left
              (fun best (mv, reorder, s) ->
                match best with
                | Some (_, _, b) when robdd b <= robdd s ->
                    best
                | _ -> Some (mv, reorder, s))
              None candidates
          in
          match winner with
          | None ->
              Printf.eprintf
                "socyield tune: every candidate for %S failed its budget — \
                 no registry entry written\n"
                family;
              (acc, true)
          | Some (mv, reorder, s) ->
              ( Registry.upsert acc
                  {
                    Registry.family;
                    mv;
                    bit = Scheme.Ml;
                    reorder;
                    peak_nodes = fst (robdd s);
                  },
                missing ))
        (existing, false) benchmarks
    in
    let t =
      Text_table.create
        ~aligns:[ Left; Left; Left; Right; Right; Right; Left ]
        [ "family"; "mv"; "sift"; "peak"; "size"; "CPU (s)"; "status" ]
    in
    List.iter
      (fun (reorder, ({ Campaign.point = p; result } : Campaign.row)) ->
        let won =
          match Registry.find tuned ~family:p.Campaign.source with
          | Some e -> e.Registry.mv = p.Campaign.mv && e.Registry.reorder = reorder
          | None -> false
        in
        let cells =
          match result with
          | Ok s ->
              let peak, size = robdd s in
              [
                Text_table.group_thousands peak;
                Text_table.group_thousands size;
                cpu_cell (if reorder then sifted else static).Campaign.rows p s;
                (if won then "ok *winner*" else "ok");
              ]
          | Error _ -> [ "-"; "-"; "-"; Campaign.status_name result ]
        in
        Text_table.add_row t
          (p.Campaign.source
          :: Scheme.mv_order_name p.Campaign.mv
          :: (if reorder then "yes" else "no")
          :: cells))
      rows;
    print_string (Text_table.render t);
    (match Registry.save registry tuned with
    | () -> Printf.printf "registry: %s (%d entr%s)\n" registry
              (List.length tuned)
              (if List.length tuned = 1 then "y" else "ies")
    | exception Sys_error msg ->
        Printf.eprintf "socyield tune: cannot write registry: %s\n" msg;
        exit 1);
    if missing then exit 1
  in
  let term =
    Term.(
      const run $ benchmarks_arg $ lambda_arg $ alpha_arg $ epsilon_arg
      $ node_limit_arg $ domains_arg $ registry_arg)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Tournament static orderings with and without sifting per benchmark \
          family and persist the winners to the --registry file consumed by \
          'eval --tuned' and 'query --tuned'")
    term

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

(* Both --metrics-out and --trace files reduce to (probe path, number)
   rows via Socy_obs.Doc — the validating reader, so a truncated or
   malformed document is an exit-2 error, never a silently empty or
   partial table. The same rows then serve pretty-printing one file and
   diffing two — the human-readable sibling of bench/compare.exe. *)

let read_rows path =
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "socyield: %s\n" msg;
      exit 2
  in
  match Doc.rows_of_string contents with
  | Ok rows -> rows
  | Error msg ->
      Printf.eprintf "socyield: %s: %s\n" path msg;
      exit 2

let report_cmd =
  let file_a =
    let doc = "Metrics (--metrics-out) or trace (--trace) JSON file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let file_b =
    let doc =
      "Optional second file: print a per-probe delta table $(docv) − FILE \
       instead of the plain listing."
    in
    Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE2" ~doc)
  in
  let cell = function Some v -> Printf.sprintf "%.6g" v | None -> "-" in
  let run file_a file_b =
    let rows_a = read_rows file_a in
    match file_b with
    | None ->
        let t = Text_table.create ~aligns:[ Left; Right ] [ "probe"; "value" ] in
        List.iter (fun (k, v) -> Text_table.add_row t [ k; cell (Some v) ]) rows_a;
        print_string (Text_table.render t)
    | Some fb ->
        let rows_b = read_rows fb in
        let tbl_a = Hashtbl.create 64 and tbl_b = Hashtbl.create 64 in
        List.iter (fun (k, v) -> Hashtbl.replace tbl_a k v) rows_a;
        List.iter (fun (k, v) -> Hashtbl.replace tbl_b k v) rows_b;
        let keys =
          List.map fst rows_a
          @ List.filter (fun k -> not (Hashtbl.mem tbl_a k)) (List.map fst rows_b)
        in
        let t =
          Text_table.create
            ~aligns:[ Left; Right; Right; Right; Right ]
            [ "probe"; "old"; "new"; "delta"; "delta%" ]
        in
        List.iter
          (fun k ->
            let a = Hashtbl.find_opt tbl_a k and b = Hashtbl.find_opt tbl_b k in
            let delta, pct =
              match (a, b) with
              | Some a, Some b ->
                  ( Printf.sprintf "%+.6g" (b -. a),
                    if a <> 0.0 then
                      Printf.sprintf "%+.1f%%" (100.0 *. (b -. a) /. a)
                    else "-" )
              | _ -> ("-", "-")
            in
            Text_table.add_row t [ k; cell a; cell b; delta; pct ])
          keys;
        print_string (Text_table.render t)
  in
  let term = Term.(const run $ file_a $ file_b) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Pretty-print a metrics/trace JSON file, or diff two as a per-probe \
          delta table")
    term

(* ------------------------------------------------------------------ *)
(* mc                                                                  *)
(* ------------------------------------------------------------------ *)

let mc_cmd =
  let trials_arg =
    Arg.(value & opt int 100_000 & info [ "trials" ] ~docv:"N" ~doc:"Trial count.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let run query trials seed =
    let { Proto.circuit; model; _ } = resolve (query ()) in
    let r =
      Cli_terms.checked (fun () ->
          Socy_core.Montecarlo.run ~seed:(Int64.of_int seed) ~trials circuit
            (Model.to_lethal model))
    in
    Printf.printf "yield estimate  %.6f\n" r.Socy_core.Montecarlo.estimate;
    Printf.printf "95%% CI          [%.6f, %.6f]\n" r.Socy_core.Montecarlo.ci_low
      r.Socy_core.Montecarlo.ci_high;
    Printf.printf "trials          %d (%d functioning)\n"
      r.Socy_core.Montecarlo.trials r.Socy_core.Montecarlo.functioning
  in
  let term = Term.(const run $ query_term $ trials_arg $ seed_arg) in
  Cmd.v (Cmd.info "mc" ~doc:"Monte Carlo yield estimate (simulation baseline)") term

(* ------------------------------------------------------------------ *)
(* orders                                                              *)
(* ------------------------------------------------------------------ *)

let orders_cmd =
  let run query epsilon node_limit =
    let { Proto.circuit; model; _ } = resolve (query ()) in
    let config =
      Cli_terms.checked (fun () ->
          P.Config.make ~epsilon ~node_limit ~bit_order:Scheme.Ml ())
    in
    let lethal = Model.to_lethal model in
    let t =
      Text_table.create
        ~aligns:[ Left; Right; Right; Right ]
        [ "mv ordering"; "ROMDD"; "coded ROBDD"; "ROBDD peak" ]
    in
    List.iter
      (fun mv ->
        let config = P.Config.with_mv_order mv config in
        let cells =
          match Cli_terms.checked (fun () -> P.run_lethal ~config circuit lethal) with
          | Ok r ->
              [
                Text_table.group_thousands r.P.romdd_size;
                Text_table.group_thousands r.P.robdd_size;
                Text_table.group_thousands r.P.robdd_peak;
              ]
          | Error _ -> [ "-"; "-"; "-" ]
        in
        Text_table.add_row t (Scheme.mv_order_name mv :: cells))
      Scheme.table2_mv_orders;
    print_string (Text_table.render t)
  in
  let term = Term.(const run $ query_term $ epsilon_arg $ node_limit_arg) in
  Cmd.v
    (Cmd.info "orders" ~doc:"Compare variable orderings on one instance (cf. Table 2)")
    term

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    let t =
      Text_table.create ~aligns:[ Left; Right; Right ]
        [ "benchmark"; "components"; "gates" ]
    in
    List.iter
      (fun (instance : S.instance) ->
        Text_table.add_row t
          [
            instance.S.label;
            string_of_int instance.S.circuit.C.num_inputs;
            string_of_int (C.gate_count instance.S.circuit);
          ])
      (S.table1_instances ());
    print_string (Text_table.render t)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark instances (cf. Table 1)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let what_arg =
    let doc = "What to export: 'fault-tree', 'g-circuit' or 'romdd'." in
    Arg.(value & pos 0 (enum [ ("fault-tree", `Ft); ("g-circuit", `G); ("romdd", `Romdd) ]) `Ft & info [] ~docv:"WHAT" ~doc)
  in
  let run what query epsilon =
    let { Proto.circuit; model; _ } = resolve (query ()) in
    let config = Cli_terms.checked (fun () -> P.Config.make ~epsilon ()) in
    match what with
    | `Ft -> print_string (C.to_dot circuit)
    | `G ->
        let m =
          Cli_terms.checked (fun () ->
              Model.truncation (Model.to_lethal model) ~epsilon:config.P.epsilon)
        in
        let problem = Socy_encode.Problem.build circuit ~m in
        print_string (C.to_dot problem.Socy_encode.Problem.circuit)
    | `Romdd -> (
        match
          Cli_terms.checked (fun () ->
              P.Artifacts.build ~config circuit (Model.to_lethal model))
        with
        | Error f ->
            prerr_endline ("failed — " ^ P.failure_to_string f);
            exit 1
        | Ok a ->
            print_string (Mdd.to_dot a.P.Artifacts.mdd a.P.Artifacts.mdd_root))
  in
  let term = Term.(const run $ what_arg $ query_term $ epsilon_arg) in
  Cmd.v (Cmd.info "dot" ~doc:"Export Graphviz renderings of the artifacts") term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

(* The client side of `query` and `top`: connect to the daemon and return
   the round trip (one request line out, one reply line in) and the
   closer. Every failure is an exit-2 error naming the command. *)
let daemon_client ~cmd socket =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "socyield %s: %s\n" cmd msg;
        exit 2)
      fmt
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     fail "cannot connect to %s: %s" socket (Unix.error_message e));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let roundtrip req =
    output_string oc (Json.to_string (Proto.request_to_json req));
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | exception End_of_file -> fail "daemon closed the connection"
    | line -> (
        match Json.of_string line with
        | reply -> reply
        | exception Json.Parse_error msg -> fail "malformed reply: %s" msg)
  in
  (roundtrip, fun () -> try Unix.close fd with Unix.Unix_error _ -> ())

let serve_cmd =
  let domains_arg =
    let doc =
      "Worker domains of the executor (default: recommended domain count \
       minus one for the accept loop)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Capacity of the cross-request result cache (LRU entries)." in
    Arg.(value & opt int 128 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission cap on submitted-but-unfinished runs (default 4 × domains); \
       requests beyond it are rejected with admission-rejected."
    in
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_node_limit_arg =
    let doc =
      "Reject requests asking for a node budget above $(docv) (default: the \
       --node-limit default, i.e. requests may only lower it)."
    in
    Arg.(value & opt (some int) None & info [ "max-node-limit" ] ~docv:"N" ~doc)
  in
  let cpu_limit_arg =
    let doc = "CPU-seconds budget applied to requests that omit one." in
    Arg.(value & opt (some float) None & info [ "cpu-limit" ] ~docv:"S" ~doc)
  in
  let max_cpu_limit_arg =
    let doc = "Reject requests asking for a CPU budget above $(docv) seconds." in
    Arg.(value & opt (some float) None & info [ "max-cpu-limit" ] ~docv:"S" ~doc)
  in
  let serve_par_domains_arg =
    let doc =
      "Intra-problem team size applied to requests that omit par_domains \
       (default 1 = sequential). Parallel runs reuse the executor's worker \
       domains — the daemon never spawns a second domain team (see \
       docs/OPERATIONS.md)."
    in
    Arg.(value & opt int 1 & info [ "par-domains" ] ~docv:"N" ~doc)
  in
  let force_arg =
    let doc = "Remove a pre-existing socket file before binding." in
    Arg.(value & flag & info [ "force" ] ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Log a structured serve.slow warning (cache-key digest, per-stage wall \
       times, peak nodes, effective engine settings) for every request slower \
       than $(docv) wall milliseconds."
    in
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let log_level_arg =
    let doc =
      "Structured-log threshold: debug, info, warn, error or off (default \
       off; --slow-ms alone implies warn)."
    in
    Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_file_arg =
    let doc =
      "Append structured log records (NDJSON, one object per line) to \
       $(docv), rotating at --log-max-bytes."
    in
    Arg.(value & opt (some string) None & info [ "log-file" ] ~docv:"FILE" ~doc)
  in
  let log_max_bytes_arg =
    let doc =
      "Rotate the --log-file when appending would push it past $(docv) bytes \
       (FILE becomes FILE.1 and so on, three rotated generations kept)."
    in
    Arg.(
      value & opt int (8 * 1024 * 1024) & info [ "log-max-bytes" ] ~docv:"N" ~doc)
  in
  let metrics_file_arg =
    let doc =
      "Snapshot the Prometheus text exposition to $(docv) every \
       --metrics-interval seconds (atomic write-then-rename; final snapshot \
       at shutdown) — for file-based scrapers."
    in
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE" ~doc)
  in
  let metrics_interval_arg =
    let doc = "Seconds between --metrics-file snapshots." in
    Arg.(value & opt float 10.0 & info [ "metrics-interval" ] ~docv:"S" ~doc)
  in
  let run socket domains cache_capacity max_inflight node_limit max_node_limit
      cpu_limit max_cpu_limit par_domains force slow_ms log_level log_file
      log_max_bytes metrics_file metrics_interval trace_out =
    (* Every out-of-range server setting is Server.config's to reject:
       one usage error line, before the log file or the socket exists.
       The --log-* flags configure Log, so they are checked here. *)
    let cfg =
      Cli_terms.checked (fun () ->
          Server.config ?domains ~cache_capacity ?max_inflight
            ~default_node_limit:node_limit ?max_node_limit
            ?default_cpu_limit:cpu_limit ?max_cpu_limit
            ~default_par_domains:par_domains ~unlink_existing:force ?slow_ms
            ?metrics_file ~metrics_interval ~socket_path:socket ())
    in
    if log_max_bytes < 1 then
      Cli_terms.usage_error "--log-max-bytes must be at least 1 (got %d)"
        log_max_bytes;
    (* The daemon always meters itself: the metrics endpoint, --metrics-file
       and `socyield top` are useless against an empty registry, and the
       accept/dispatch path is not the benchmarked pipeline hot loop. *)
    Obs.set_enabled true;
    let level =
      match log_level with
      | None -> if slow_ms <> None then Some Log.Warn else None
      | Some "off" -> None
      | Some name -> (
          match Log.level_of_name name with
          | Some _ as l -> l
          | None -> Cli_terms.usage_error "unknown --log-level %S" name)
    in
    Log.set_level level;
    (match log_file with
    | None -> ()
    | Some path -> (
        try Log.open_file ~max_bytes:log_max_bytes path
        with Sys_error msg ->
          Cli_terms.usage_error "cannot open --log-file: %s" msg));
    match Server.create cfg with
    | exception Failure msg ->
        prerr_endline msg;
        exit 1
    | server ->
        let stop _signal = Server.stop server in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        Printf.eprintf
          "socyield serve: listening on %s (%d worker domain(s), cache %d)\n%!"
          socket cfg.Server.domains cfg.Server.cache_capacity;
        Server.run server;
        Log.close_file ();
        write_trace trace_out;
        let stats = Server.stats_json server in
        (match Json.member "cache" stats with
        | Some c ->
            let n k =
              match Json.member k c with Some (Json.Int i) -> i | _ -> 0
            in
            Printf.eprintf
              "socyield serve: drained and stopped — cache: %d hit(s), %d \
               miss(es), %d eviction(s)\n"
              (n "hits") (n "misses") (n "evictions")
        | None -> Printf.eprintf "socyield serve: drained and stopped\n")
  in
  let term =
    Term.(
      const run $ socket_arg $ domains_arg $ cache_arg $ max_inflight_arg
      $ node_limit_arg $ max_node_limit_arg $ cpu_limit_arg $ max_cpu_limit_arg
      $ serve_par_domains_arg $ force_arg $ slow_ms_arg $ log_level_arg
      $ log_file_arg $ log_max_bytes_arg $ metrics_file_arg
      $ metrics_interval_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the yield daemon: newline-delimited JSON requests over a \
          Unix-domain socket, answered in parallel across worker domains \
          with a cross-request result cache (protocol: docs/PROTOCOL.md; \
          operations: docs/OPERATIONS.md)")
    term

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let meth_conv =
    let parse s =
      match Proto.meth_of_name s with
      | Some m -> Ok m
      | None -> Error (`Msg (Printf.sprintf "unknown method %S" s))
    in
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Proto.meth_name m))
  in
  let meth_arg =
    let doc =
      "Protocol method: eval, conditional-yields, importance, stats, metrics, \
       health or shutdown. With metrics the reply's Prometheus text \
       exposition is printed raw (ready for a scraper) instead of the JSON \
       envelope."
    in
    Arg.(value & opt meth_conv Proto.Eval & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let node_limit_opt_arg =
    let doc = "Requested live-node budget (omitted: the server's default)." in
    Arg.(value & opt (some int) None & info [ "node-limit" ] ~docv:"N" ~doc)
  in
  let cpu_limit_opt_arg =
    let doc = "Requested CPU-seconds budget (omitted: the server's default)." in
    Arg.(value & opt (some float) None & info [ "cpu-limit" ] ~docv:"S" ~doc)
  in
  let twice_arg =
    let doc =
      "Send the identical request twice and assert the second reply is \
       answered from the daemon's cache with a result bit-identical to the \
       first (exit 1 otherwise) — the cache-coherence smoke test."
    in
    Arg.(value & flag & info [ "twice" ] ~doc)
  in
  let par_domains_opt_arg =
    let doc =
      "Requested intra-problem team size (omitted: the server's default)."
    in
    Arg.(value & opt (some int) None & info [ "par-domains" ] ~docv:"N" ~doc)
  in
  let run socket meth query node_limit cpu_limit par_domains twice =
    (* A control method carries no query: its source flags and --tuned
       are ignored. *)
    let query =
      if Proto.is_evaluation meth then
        Some { (query ()) with Proto.node_limit; cpu_limit; par_domains }
      else None
    in
    let roundtrip, close = daemon_client ~cmd:"query" socket in
    let roundtrip id = roundtrip { Proto.id = Json.Int id; meth; query } in
    let status reply =
      match Json.member "status" reply with
      | Some (Json.String s) -> s
      | _ -> "?"
    in
    (* A successful metrics reply unwraps to the raw text exposition —
       `socyield query --method metrics > metrics.prom` feeds a scraper
       directly. Everything else prints the JSON envelope line. *)
    let print_reply reply =
      match
        if meth = Proto.Metrics && status reply = "ok" then
          Option.bind (Json.member "result" reply) (Json.member "exposition")
        else None
      with
      | Some (Json.String text) -> print_string text
      | Some _ | None -> print_endline (Json.to_string reply)
    in
    let failed = ref false in
    let first = roundtrip 1 in
    print_reply first;
    if status first = "error" then failed := true;
    if twice then begin
      let second = roundtrip 2 in
      print_reply second;
      if status second = "error" then failed := true;
      let cache reply =
        match Json.member "cache" reply with
        | Some (Json.String s) -> Some s
        | _ -> None
      in
      let result reply = Option.map Json.to_string (Json.member "result" reply) in
      if cache second <> Some "hit" then begin
        Printf.eprintf "socyield query: second reply was not a cache hit (%s)\n"
          (Option.value ~default:"no cache field" (cache second));
        failed := true
      end;
      if result first = None || result first <> result second then begin
        Printf.eprintf
          "socyield query: cached result is not bit-identical to the cold run\n";
        failed := true
      end
    end;
    close ();
    if !failed then exit 1
  in
  let term =
    Term.(
      const run $ socket_arg $ meth_arg $ Cli_terms.eval_query_term
      $ node_limit_opt_arg $ cpu_limit_opt_arg $ par_domains_opt_arg $ twice_arg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one request to a running serve daemon and print the reply \
          line(s); --twice asserts cache coherence")
    term

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* A console view over the daemon's stats document. No client-side state:
   every frame is one stats round-trip over a single connection, so top
   can attach to and detach from a long-lived daemon freely. *)
let top_cmd =
  let once_arg =
    let doc =
      "Print a single snapshot to standard output and exit — no screen \
       control, stable line format (the machine-checkable mode CI uses)."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval_arg =
    let doc = "Seconds between refreshes in live mode." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"S" ~doc)
  in
  let run socket once interval =
    if not (Float.is_finite interval) || interval <= 0.0 then begin
      Printf.eprintf "socyield top: --interval must be positive\n";
      exit 2
    end;
    let roundtrip, close = daemon_client ~cmd:"top" socket in
    let next_id = ref 0 in
    let fetch_stats () =
      incr next_id;
      let reply =
        roundtrip { Proto.id = Json.Int !next_id; meth = Proto.Stats; query = None }
      in
      match Json.member "result" reply with
      | Some stats -> stats
      | None ->
          Printf.eprintf "socyield top: error reply: %s\n" (Json.to_string reply);
          exit 2
    in
    let members = function Some (Json.Obj kvs) -> kvs | _ -> [] in
    let num = function
      | Some (Json.Int i) -> Some (float_of_int i)
      | Some (Json.Float f) -> Some f
      | _ -> None
    in
    let num0 j = Option.value (num j) ~default:0.0 in
    let int0 j = int_of_float (num0 j) in
    let str j = match j with Some (Json.String s) -> s | _ -> "?" in
    let render stats =
      let b = Buffer.create 4096 in
      let line fmt =
        Printf.ksprintf
          (fun s ->
            Buffer.add_string b s;
            Buffer.add_char b '\n')
          fmt
      in
      let metrics = Json.member "metrics" stats in
      let gauges = members (Option.bind metrics (Json.member "gauges")) in
      let hists = members (Option.bind metrics (Json.member "histograms")) in
      let requests = members (Json.member "requests" stats) in
      let cache = Json.member "cache" stats in
      let trace = Json.member "trace" stats in
      let log = Json.member "log" stats in
      line "socyield top — %s" socket;
      line
        "uptime %.1f s   domains %d   inflight %d   active %d   connections %d"
        (num0 (Json.member "uptime_s" stats))
        (int0 (Json.member "domains" stats))
        (int0 (Json.member "in_flight" stats))
        (int0 (Json.member "active_requests" stats))
        (int0 (Json.member "open_connections" stats));
      line "requests  %s"
        (String.concat "  "
           (List.map (fun (k, v) -> Printf.sprintf "%s %d" k (int0 (Some v)))
              requests));
      let hits = int0 (Option.bind cache (Json.member "hits")) in
      let misses = int0 (Option.bind cache (Json.member "misses")) in
      line "cache     %d/%d hits (%.1f%%)  size %d/%d  evictions %d" hits
        (hits + misses)
        (100.0 *. num0 (Option.bind cache (Json.member "hit_rate")))
        (int0 (Option.bind cache (Json.member "size")))
        (int0 (Option.bind cache (Json.member "capacity")))
        (int0 (Option.bind cache (Json.member "evictions")));
      line
        "trace     buffered %d  dropped %d        log %s  emitted %d  dropped %d"
        (int0 (Option.bind trace (Json.member "buffered")))
        (int0 (Option.bind trace (Json.member "dropped")))
        (str (Option.bind log (Json.member "level")))
        (int0 (Option.bind log (Json.member "emitted")))
        (int0 (Option.bind log (Json.member "dropped")));
      Buffer.add_char b '\n';
      let latency_prefix = "serve.latency." in
      let endpoints =
        List.filter_map
          (fun (k, v) ->
            if String.starts_with ~prefix:latency_prefix k then
              Some
                ( String.sub k (String.length latency_prefix)
                    (String.length k - String.length latency_prefix),
                  v )
            else None)
          hists
      in
      line "endpoint latency (ms)";
      let t =
        Text_table.create
          ~aligns:[ Left; Right; Right; Right; Right ]
          [ "endpoint"; "count"; "p50"; "p90"; "p99" ]
      in
      List.iter
        (fun (name, h) ->
          let count = int0 (Json.member "count" h) in
          let q key =
            if count = 0 then "-"
            else Printf.sprintf "%.1f" (1000.0 *. num0 (Json.member key h))
          in
          Text_table.add_row t
            [ name; string_of_int count; q "p50"; q "p90"; q "p99" ])
        endpoints;
      Buffer.add_string b (Text_table.render t);
      Buffer.add_char b '\n';
      (* Every *.occupancy gauge in one table: the serve cache plus each
         engine's unique-table shards, which is the live view of how
         evenly the concurrent build spreads its nodes. *)
      let occupancy =
        List.filter
          (fun (k, _) ->
            let sub = "occupancy" in
            let n = String.length k and m = String.length sub in
            let rec has i =
              i + m <= n && (String.sub k i m = sub || has (i + 1))
            in
            has 0)
          gauges
      in
      line "occupancy gauges";
      let t =
        Text_table.create
          ~aligns:[ Left; Right; Right; Right ]
          [ "gauge"; "last"; "min"; "max" ]
      in
      List.iter
        (fun (k, g) ->
          let cell key = Printf.sprintf "%g" (num0 (Json.member key g)) in
          Text_table.add_row t [ k; cell "last"; cell "min"; cell "max" ])
        occupancy;
      Buffer.add_string b (Text_table.render t);
      Buffer.contents b
    in
    let rec loop () =
      let stats = fetch_stats () in
      if (not once) && Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
      print_string (render stats);
      flush stdout;
      if not once then begin
        Thread.delay interval;
        loop ()
      end
    in
    loop ();
    close ()
  in
  let term = Term.(const run $ socket_arg $ once_arg $ interval_arg) in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live console view of a running serve daemon: per-endpoint latency \
          quantiles, cache hit ratio, inflight/connection gauges and \
          shard-occupancy summaries, refreshed over the stats method")
    term

(* ------------------------------------------------------------------ *)
(* cutsets                                                             *)
(* ------------------------------------------------------------------ *)

let cutsets_cmd =
  let limit_arg =
    Arg.(value & opt int 50 & info [ "limit" ] ~docv:"N" ~doc:"Print at most N cut sets.")
  in
  let run query limit =
    let { Proto.circuit; names; _ } = resolve (query ()) in
    let sets = Socy_bdd.Cutsets.of_circuit ~limit circuit in
    Printf.printf "%d minimal cut set(s)%s:\n" (List.length sets)
      (if List.length sets = limit then Printf.sprintf " (limited to %d)" limit
       else "");
    List.iter
      (fun set ->
        Printf.printf "  { %s }\n"
          (String.concat ", " (List.map (fun i -> names.(i)) set)))
      sets
  in
  (* Cut sets depend on the circuit alone; the model is the default one. *)
  let query =
    Term.(const query_of $ source_term $ const 10.0 $ const S.alpha $ const 0.1)
  in
  let term = Term.(const run $ query $ limit_arg) in
  Cmd.v
    (Cmd.info "cutsets"
       ~doc:"Minimal cut sets of a coherent fault tree (why yield is lost)")
    term

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

module Cstore = Socy_campaign.Store
module Gates = Socy_campaign.Gates
module Trend = Socy_campaign.Trend

let store_arg =
  let doc =
    "Campaign artifact store: a directory holding one timestamped \
     subdirectory (campaign.json + optional metrics/trace) per run."
  in
  Arg.(
    required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let campaign_run_cmd =
  let name_arg =
    let doc =
      "Campaign name: the stable grid identity runs are grouped and \
       trended under (also the run-directory prefix)."
    in
    Arg.(required & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let save_metrics_arg =
    let doc =
      "Also write the observability snapshot as metrics.json next to the \
       run's campaign.json (enables the observability layer)."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let save_trace_arg =
    let doc =
      "Also write the Chrome trace-event timeline as trace.json next to \
       the run's campaign.json (enables the observability layer)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run name store grid cpu_limit domains wall_budget save_metrics save_trace
      progress =
    if save_metrics || save_trace then Obs.set_enabled true;
    let c =
      run_grid ~route:P.Direct ~domains ?wall_budget ?progress
        (grid ~name ~cpu_limit)
    in
    let metrics =
      if save_metrics then Some (Sink.snapshot_to_json (Obs.snapshot ()))
      else None
    in
    let trace = if save_trace then Some (Trace.to_json ()) else None in
    let entry = Campaign.save ~root:store ?metrics ?trace c in
    let ok, failed =
      List.fold_left
        (fun (ok, failed) (r : Campaign.row) ->
          match r.Campaign.result with
          | Ok _ -> (ok + 1, failed)
          | Error _ -> (ok, failed + 1))
        (0, 0) c.Campaign.rows
    in
    Printf.printf "stored %s: %d point(s), %d ok, %d failed, %.2f s wall\n"
      (Cstore.campaign_file entry)
      (List.length c.Campaign.rows)
      ok failed c.Campaign.wall_s;
    if failed > 0 then
      List.iter
        (fun (r : Campaign.row) ->
          match r.Campaign.result with
          | Ok _ -> ()
          | Error _ ->
              Printf.printf "  failed %s: %s\n"
                (Campaign.point_label r.Campaign.point)
                (Campaign.status_name r.Campaign.result))
        c.Campaign.rows
  in
  let term =
    Term.(
      const run $ name_arg $ store_arg $ Cli_terms.grid_term $ cpu_limit_arg
      $ domains_arg $ wall_budget_arg $ save_metrics_arg $ save_trace_arg
      $ progress_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Evaluate a named benchmark × lambda × epsilon × ordering grid and \
          store the result as a timestamped socyield-campaign/1 artifact. \
          Points build on the direct route: the ROMDD by multiple-valued \
          APPLY, without the coded ROBDD, so rows carry peak_nodes (MDD \
          nodes created) where sweep's carry robdd_peak and robdd_size")
    term

let campaign_report_cmd =
  let diff_arg =
    let doc =
      "Diff two stored runs by id, $(docv) = OLD,NEW; gate failures and \
       ok->failed status flips exit 1."
    in
    Arg.(
      value & opt (some (pair string string)) None & info [ "diff" ] ~docv:"IDS" ~doc)
  in
  let diff_latest_arg =
    let doc = "Diff the two most recent runs in the store." in
    Arg.(value & flag & info [ "diff-latest" ] ~doc)
  in
  let html_arg =
    let doc = "Render the aggregate report as HTML instead of text." in
    Arg.(value & flag & info [ "html" ] ~doc)
  in
  let out_arg =
    let doc = "Write the report to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let window_arg =
    let doc = "Trailing runs considered by the creep detector." in
    Arg.(
      value
      & opt int Trend.default_config.Trend.window
      & info [ "window" ] ~docv:"N" ~doc)
  in
  let load_runs store =
    match Campaign.load_all ~root:store with
    | Error msg ->
        Printf.eprintf "socyield: %s\n" msg;
        exit 2
    | Ok [] ->
        Printf.eprintf "socyield: no campaign runs in %s\n" store;
        exit 2
    | Ok runs -> runs
  in
  let report_diff d =
    let failures = ref 0 in
    Printf.printf "diff %s -> %s\n" d.Campaign.d_old d.Campaign.d_new;
    Option.iter
      (fun (o, n) ->
        Printf.printf
          "note  routes differ (%s -> %s): node counts are not compared\n"
          (P.route_name o) (P.route_name n))
      d.Campaign.routes;
    List.iter
      (fun (o : Gates.outcome) ->
        if o.Gates.failed then begin
          incr failures;
          Printf.printf "FAIL  %s\n" (Gates.describe o)
        end
        else if Gates.announced o then
          let prefix =
            match o.Gates.check with Gates.Row_new -> "note " | _ -> "ok   "
          in
          Printf.printf "%s %s\n" prefix (Gates.describe o))
      d.Campaign.outcomes;
    List.iter
      (fun (sc : Campaign.status_change) ->
        if Campaign.status_change_failed sc then begin
          incr failures;
          Printf.printf "FAIL  %s: status %s -> %s\n"
            (Campaign.point_label sc.Campaign.sc_point)
            sc.Campaign.sc_old sc.Campaign.sc_new
        end
        else
          Printf.printf "note  %s: status %s -> %s\n"
            (Campaign.point_label sc.Campaign.sc_point)
            sc.Campaign.sc_old sc.Campaign.sc_new)
      d.Campaign.status_changes;
    if !failures > 0 then begin
      Printf.printf "%d regression(s)\n" !failures;
      exit 1
    end
    else print_endline "no regressions"
  in
  let run store diff diff_latest html out window =
    let runs = load_runs store in
    match (diff, diff_latest) with
    | Some _, true ->
        Printf.eprintf "socyield: --diff and --diff-latest are mutually exclusive\n";
        exit 2
    | Some (old_id, new_id), false ->
        let find id =
          match List.assoc_opt id runs with
          | Some c -> c
          | None ->
              Printf.eprintf "socyield: no run %S in %s\n" id store;
              exit 2
        in
        report_diff
          (Campaign.diff ~old_label:old_id ~new_label:new_id (find old_id)
             (find new_id))
    | None, true -> (
        match List.rev runs with
        | (new_id, new_c) :: (old_id, old_c) :: _ ->
            report_diff
              (Campaign.diff ~old_label:old_id ~new_label:new_id old_c new_c)
        | _ ->
            Printf.eprintf "socyield: --diff-latest needs at least two runs\n";
            exit 2)
    | None, false ->
        let config = { Trend.default_config with Trend.window } in
        let findings =
          Trend.detect ~config
            (List.map
               (fun (id, c) ->
                 { Trend.snap_label = id; bench = Campaign.to_bench c })
               runs)
        in
        let body =
          if html then Campaign.render_html ~runs ~findings
          else Campaign.render_text ~runs ~findings
        in
        with_out_file ~what:"report" out (fun oc -> output_string oc body)
  in
  let term =
    Term.(
      const run $ store_arg $ diff_arg $ diff_latest_arg $ html_arg $ out_arg
      $ window_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate a campaign store into a trend report (text or HTML), or \
          diff two stored runs through the shared gate table")
    term

let campaign_prune_cmd =
  let keep_days_arg =
    let doc =
      "Delete runs whose id stamp is older than $(docv) days (runs with an \
       unparseable stamp are never aged out)."
    in
    Arg.(value & opt (some float) None & info [ "keep-days" ] ~docv:"DAYS" ~doc)
  in
  let keep_last_arg =
    let doc = "Keep the newest $(docv) runs regardless of their age." in
    Arg.(value & opt (some int) None & info [ "keep-last" ] ~docv:"N" ~doc)
  in
  let dry_run_arg =
    let doc = "Print what would be deleted without deleting anything." in
    Arg.(value & flag & info [ "dry-run" ] ~doc)
  in
  (* A run survives when EITHER retention rule protects it: young enough
     for --keep-days, or within the newest --keep-last. Deleting is the
     conjunction of failing every given rule — the conservative reading
     when both flags are present. *)
  let run store keep_days keep_last dry_run =
    let usage_fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "socyield campaign prune: %s\n" msg;
          exit 2)
        fmt
    in
    (match (keep_days, keep_last) with
    | None, None ->
        usage_fail "at least one of --keep-days or --keep-last is required"
    | _ -> ());
    (match keep_days with
    | Some d when (not (Float.is_finite d)) || d < 0.0 ->
        usage_fail "--keep-days must be a non-negative number (got %g)" d
    | _ -> ());
    (match keep_last with
    | Some k when k < 0 -> usage_fail "--keep-last must be non-negative (got %d)" k
    | _ -> ());
    let runs = Cstore.list_runs ~root:store in
    let total = List.length runs in
    let now = Unix.gettimeofday () in
    let victims =
      List.filteri
        (fun i (e : Cstore.entry) ->
          let by_last =
            match keep_last with None -> false | Some k -> i >= total - k
          in
          let by_age =
            match keep_days with
            | None -> false
            | Some days -> (
                match Cstore.run_timestamp e.Cstore.id with
                | None -> true
                | Some ts -> now -. ts <= days *. 86400.0)
          in
          not (by_last || by_age))
        runs
    in
    let failures = ref 0 in
    List.iter
      (fun (e : Cstore.entry) ->
        let age_fields =
          match Cstore.run_timestamp e.Cstore.id with
          | Some ts -> [ ("age_days", Json.Float ((now -. ts) /. 86400.0)) ]
          | None -> []
        in
        if dry_run then
          print_endline
            (Json.to_string
               (Json.Obj
                  ([
                     ("event", Json.String "campaign.prune.would_delete");
                     ("run", Json.String e.Cstore.id);
                   ]
                  @ age_fields)))
        else
          match Cstore.delete_run e with
          | Ok () ->
              (* One structured line per deletion, both on stdout (the
                 operator's record) and through the Log sink when one is
                 configured. *)
              Log.info "campaign.prune"
                ~fields:(("run", Json.String e.Cstore.id) :: age_fields)
                (Printf.sprintf "deleted run %s" e.Cstore.id);
              print_endline
                (Json.to_string
                   (Json.Obj
                      ([
                         ("event", Json.String "campaign.prune.deleted");
                         ("run", Json.String e.Cstore.id);
                       ]
                      @ age_fields)))
          | Error msg ->
              incr failures;
              Printf.eprintf "socyield campaign prune: cannot delete %s: %s\n"
                e.Cstore.id msg)
      victims;
    Printf.printf "%s %d of %d run(s)%s\n"
      (if dry_run then "would delete" else "deleted")
      (List.length victims - !failures)
      total
      (if !failures > 0 then Printf.sprintf ", %d failure(s)" !failures else "");
    if !failures > 0 then exit 1
  in
  let term =
    Term.(const run $ store_arg $ keep_days_arg $ keep_last_arg $ dry_run_arg)
  in
  Cmd.v
    (Cmd.info "prune"
       ~doc:
         "Delete old campaign runs from the store by age and/or count, with a \
          structured log line per deletion; --dry-run previews")
    term

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Named evaluation grids with a timestamped artifact store and trend \
          reports")
    [ campaign_run_cmd; campaign_report_cmd; campaign_prune_cmd ]

let () =
  let info =
    Cmd.info "socyield" ~version:"1.0.0"
      ~doc:
        "Combinatorial evaluation of yield of fault-tolerant systems-on-chip \
         (reproduction of Munteanu, Suñé, Rodríguez-Montañés, Carrasco, DSN'03)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            eval_cmd; sweep_cmd; campaign_cmd; tune_cmd; serve_cmd; query_cmd;
            top_cmd; report_cmd; mc_cmd; orders_cmd; list_cmd; dot_cmd;
            cutsets_cmd;
          ]))
