(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, side by side with the paper's reported values, plus
   bechamel micro-benchmarks of the decision-diagram primitives.

   Usage:
     dune exec bench/main.exe                    # default: all sections
     dune exec bench/main.exe -- table4 --full   # one section, every row
     dune exec bench/main.exe -- --quick         # small rows only

   Row classes: light rows run everywhere; medium rows are skipped by
   --quick; heavy rows (the multi-minute ones of the paper's Table 4) are
   skipped by --quick but included by default for table4 and by --full
   everywhere. Table 2 and 3 sweep many orderings per row, so their
   default skips heavy rows (--full forces them). *)

module C = Socy_logic.Circuit
module P = Socy_core.Pipeline
module Pool = Socy_batch.Pool
module Campaign = Socy_campaign.Campaign
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Mdd = Socy_mdd.Mdd
module Model = Socy_defects.Model
module Text_table = Socy_util.Text_table
module Json = Socy_obs.Json
module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Memory = Socy_obs.Memory

let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* JSON record sink: per-row performance records, written as           *)
(* BENCH_<mode>.json (or --json=FILE) so the perf trajectory across    *)
(* commits can be diffed mechanically. --no-json disables it.          *)
(* ------------------------------------------------------------------ *)

module Bench_doc = Socy_obs.Doc.Bench

let bench_records : Bench_doc.record list ref = ref []

let record ~section ~label fields =
  bench_records :=
    { Bench_doc.section; row = label; fields } :: !bench_records

let record_report ~section ~label ~wall_s (r : P.report) =
  let ite_calls = r.P.ite_cache_hits + r.P.ite_cache_misses in
  record ~section ~label
    [
      ("m", Json.Int r.P.m);
      ("cpu_s", Json.Float r.P.cpu_seconds);
      (* wall clock of the same run; informational only — compare.exe
         gates cpu_s and never wall_s (shared runners make wall noisy) *)
      ("wall_s", Json.Float wall_s);
      ("robdd_peak", Json.Int r.P.robdd_peak);
      ("robdd_size", Json.Int r.P.robdd_size);
      ("romdd_size", Json.Int r.P.romdd_size);
      ("yield_lower", Json.Float r.P.yield_lower);
      ( "stage_times_s",
        Json.Obj (List.map (fun (k, s) -> (k, Json.Float s)) r.P.stage_times) );
      ( "ite_cache_hit_rate",
        Json.Float
          (if ite_calls = 0 then 0.0
           else float_of_int r.P.ite_cache_hits /. float_of_int ite_calls) );
      ("and_or_fast_hits", Json.Int r.P.and_or_fast_hits);
      ("gc_runs", Json.Int r.P.gc_runs);
      (* OCaml-GC totals over the pipeline stages; gc_* fields are
         informational and exempt from compare.exe's 25% gate *)
      ( "gc_minor_collections",
        Json.Int
          (List.fold_left
             (fun acc (_, d) -> acc + d.Memory.minor_collections)
             0 r.P.stage_gc) );
      ( "gc_major_collections",
        Json.Int
          (List.fold_left
             (fun acc (_, d) -> acc + d.Memory.major_collections)
             0 r.P.stage_gc) );
      ( "gc_promoted_words",
        Json.Float
          (List.fold_left
             (fun acc (_, d) -> acc +. d.Memory.promoted_words)
             0.0 r.P.stage_gc) );
    ]

let write_records ~path ~mode ~wall_s =
  (* Through the Doc.Bench codec, so the harness can never emit a file
     the comparator's reader would reject. *)
  let doc =
    Bench_doc.to_json
      { Bench_doc.mode; total_wall_s = wall_s; records = List.rev !bench_records }
  in
  let oc = open_out path in
  Json.to_channel oc doc;
  close_out oc;
  pf "wrote %d bench records to %s\n" (List.length !bench_records) path

type weight_class = Light | Medium | Heavy

let class_of_row label =
  match label with
  | "MS2, l'=1" | "MS4, l'=1" | "ESEN4x1, l'=1" | "ESEN4x2, l'=1"
  | "MS2, l'=2" | "ESEN4x1, l'=2" ->
      Light
  | "MS6, l'=1" | "ESEN4x4, l'=1" | "ESEN4x2, l'=2" -> Medium
  | _ -> Heavy

type mode = Quick | Default | Full

let rows_for mode ~sweep =
  List.filter
    (fun row ->
      match (mode, class_of_row (S.row_label row), sweep) with
      | Quick, Light, _ -> true
      | Quick, (Medium | Heavy), _ -> false
      | Default, Heavy, true -> false
      | Default, (Light | Medium | Heavy), _ -> true
      | Full, _, _ -> true)
    (S.table_rows ())

let wall () = Unix.gettimeofday ()

let fmt_int_opt = function
  | Some n -> Text_table.group_thousands n
  | None -> "-"

let config_for ?mv () = P.Config.make ?mv_order:mv ()

(* Per-cell CPU budget for the ordering sweeps: pathological orderings
   (the paper's "-" entries) are cut off instead of churning for minutes. *)
let sweep_cpu_limit = function Quick -> 20.0 | Default -> 45.0 | Full -> 300.0

(* ------------------------------------------------------------------ *)
(* Table 1: benchmark sizes                                            *)
(* ------------------------------------------------------------------ *)

let table1 _mode =
  pf "== Table 1: benchmark components and gate-level description sizes ==\n";
  pf "   (gate counts are formulation-dependent; paper values for reference)\n\n";
  let t =
    Text_table.create
      ~aligns:[ Left; Right; Right; Right; Right ]
      [ "benchmark"; "C"; "C paper"; "gates"; "gates paper" ]
  in
  List.iter2
    (fun (instance : S.instance) (label, c_paper, gates_paper) ->
      assert (instance.S.label = label);
      Text_table.add_row t
        [
          instance.S.label;
          string_of_int instance.S.circuit.C.num_inputs;
          string_of_int c_paper;
          string_of_int (C.gate_count instance.S.circuit);
          string_of_int gates_paper;
        ])
    (S.table1_instances ()) Paper_data.table1;
  print_string (Text_table.render t);
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Table 2: ROMDD size per multiple-valued ordering                    *)
(* ------------------------------------------------------------------ *)

(* A sweep cell that failed renders as the paper's "-" when the node
   budget blew up, and as "t/o" when the per-cell CPU budget cut off a
   pathological ordering (the typed Cpu_budget failure, not a stage
   string). *)
let fmt_sweep_cell size = function
  | Ok s -> Text_table.group_thousands (size s)
  | Error (Campaign.Cpu_budget_hit _) -> "t/o"
  | Error (Campaign.Node_budget_hit _ | Campaign.Cancelled) -> "-"

(* The grid the bench's campaign sections start from: the paper's alpha
   and epsilon, the default orderings and node budget, no CPU budget. *)
let bench_grid name =
  {
    Campaign.name;
    benchmarks = [];
    lambdas = [];
    epsilons = [ S.epsilon ];
    mv_orders = [ P.default_config.P.mv_order ];
    bit_order = P.default_config.P.bit_order;
    alpha = S.alpha;
    node_limit = P.default_config.P.node_limit;
    cpu_limit = None;
    reorder = false;
    par_domains = 1;
  }

let run_campaign ?route grid =
  match Campaign.run ?route grid with
  | Ok c -> c
  | Error msg -> failwith (grid.Campaign.name ^ ": " ^ msg)

(* Run the sweep-table cells of [rows] as campaign grids: at one lambda
   the table rows are a benchmark x lambda product, so each lambda is one
   grid. Cells are looked up by row and mv ordering. Tables 2 and 3 report
   the coded route's sizes, so these grids build on it. *)
let sweep_grids mode ~name ~rows ~mv_orders ~bit_order =
  let cells =
    List.concat_map
      (fun lambda ->
        let c =
          run_campaign ~route:P.Coded
            {
              (bench_grid name) with
              benchmarks =
                List.filter_map
                  (fun r ->
                    if r.S.lambda = lambda then Some r.S.instance.S.label
                    else None)
                  rows;
              lambdas = [ lambda ];
              mv_orders;
              bit_order;
              node_limit = (if mode = Full then 40_000_000 else 15_000_000);
              cpu_limit = Some (sweep_cpu_limit mode);
            }
        in
        pf "  ... %d cells on %d domains in %.1f s\n%!"
          (List.length c.Campaign.rows) c.Campaign.domains c.Campaign.wall_s;
        c.Campaign.rows)
      (List.sort_uniq compare (List.map (fun r -> r.S.lambda) rows))
  in
  fun row mv ->
    let point =
      { Campaign.source = row.S.instance.S.label; lambda = row.S.lambda;
        epsilon = S.epsilon; mv }
    in
    (List.find (fun (c : Campaign.row) -> c.Campaign.point = point) cells)
      .Campaign.result

let table2 mode =
  pf "== Table 2: ROMDD size vs multiple-valued variable ordering ==\n";
  pf "   (cells: measured / paper; '-' = node budget exhausted,\n";
  pf "    't/o' = per-cell cpu budget exhausted)\n\n";
  let headers =
    "benchmark" :: List.map Scheme.mv_order_name Scheme.table2_mv_orders
  in
  let t =
    Text_table.create
      ~aligns:(Left :: List.map (fun _ -> Text_table.Right) Scheme.table2_mv_orders)
      headers
  in
  let rows = rows_for mode ~sweep:true in
  let cell =
    sweep_grids mode ~name:"table2" ~rows ~mv_orders:Scheme.table2_mv_orders
      ~bit_order:Scheme.Ml
  in
  List.iter
    (fun row ->
      let label = S.row_label row in
      let paper = List.assoc_opt label Paper_data.table2 in
      let cells =
        List.map
          (fun mv ->
            let paper_cell =
              match (paper, mv) with
              | Some p, Scheme.Wv -> p.Paper_data.wv
              | Some p, Scheme.Wvr -> p.Paper_data.wvr
              | Some p, Scheme.Vw -> p.Paper_data.vw
              | Some p, Scheme.Vrw -> p.Paper_data.vrw
              | Some p, Scheme.Heur H.Topology -> p.Paper_data.t
              | Some p, Scheme.Heur H.Weight -> p.Paper_data.w
              | Some p, Scheme.Heur H.H4 -> p.Paper_data.h
              | None, _ -> None
            in
            Printf.sprintf "%s / %s"
              (fmt_sweep_cell (fun s -> s.Campaign.romdd_size) (cell row mv))
              (fmt_int_opt paper_cell))
          Scheme.table2_mv_orders
      in
      Text_table.add_row t (label :: cells))
    rows;
  print_string (Text_table.render t);
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Table 3: coded-ROBDD size per bit-group ordering (mv ordering w)    *)
(* ------------------------------------------------------------------ *)

let table3 mode =
  pf "== Table 3: coded-ROBDD size vs bit-group ordering (mv ordering: w) ==\n";
  pf "   (cells: measured / paper; '-' = node budget, 't/o' = cpu budget)\n\n";
  let t =
    Text_table.create ~aligns:[ Left; Right; Right; Right ]
      [ "benchmark"; "ml"; "lm"; "w" ]
  in
  let rows = rows_for mode ~sweep:true in
  let mv = Scheme.Heur H.Weight in
  let cell bit_order =
    sweep_grids mode ~name:"table3" ~rows ~mv_orders:[ mv ] ~bit_order
  in
  let ml = cell Scheme.Ml and lm = cell Scheme.Lm in
  let w = cell (Scheme.Heur_bits H.Weight) in
  List.iter
    (fun row ->
      let label = S.row_label row in
      let paper = List.assoc_opt label Paper_data.table3 in
      let robdd_size (s : Campaign.success) =
        match s.Campaign.build with
        | Campaign.Coded { robdd_size; _ } -> robdd_size
        | Campaign.Direct _ -> invalid_arg "table3: a direct-route cell has no ROBDD"
      in
      let cell_at cell paper_v =
        Printf.sprintf "%s / %s"
          (fmt_sweep_cell robdd_size (cell row mv))
          (fmt_int_opt paper_v)
      in
      Text_table.add_row t
        [
          label;
          cell_at ml (Option.map (fun p -> p.Paper_data.ml) paper);
          cell_at lm (Option.map (fun p -> p.Paper_data.lm) paper);
          cell_at w (Option.map (fun p -> p.Paper_data.w_bits) paper);
        ])
    rows;
  print_string (Text_table.render t);
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Table 4: full method performance (mv w, bits ml)                    *)
(* ------------------------------------------------------------------ *)

let table4 mode =
  pf "== Table 4: method performance, orderings w + ml ==\n";
  pf "   (cells: measured / paper; CPU seconds are host-dependent --\n";
  pf "    the paper used a 2003 Sun-Blade-1000)\n\n";
  let t =
    Text_table.create
      ~aligns:[ Left; Right; Right; Right; Right; Right; Right ]
      [ "benchmark"; "M"; "CPU (s)"; "ROBDD peak"; "ROBDD"; "ROMDD"; "yield" ]
  in
  List.iter
    (fun row ->
      let label = S.row_label row in
      let paper = List.assoc_opt label Paper_data.table4 in
      let p_cpu = Option.map (fun p -> p.Paper_data.cpu_s) paper in
      let p_peak = Option.map (fun p -> p.Paper_data.peak) paper in
      let p_robdd = Option.map (fun p -> p.Paper_data.robdd) paper in
      let p_romdd = Option.map (fun p -> p.Paper_data.romdd) paper in
      let p_yield = Option.map (fun p -> p.Paper_data.yield) paper in
      let fmt_f fmt = function Some f -> Printf.sprintf fmt f | None -> "-" in
      let t0 = wall () in
      (match P.run ~config:(config_for ()) row.S.instance.S.circuit (S.model row) with
      | Ok r ->
          record_report ~section:"table4" ~label ~wall_s:(wall () -. t0) r;
          Text_table.add_row t
            [
              label;
              string_of_int r.P.m;
              Printf.sprintf "%.2f / %s" r.P.cpu_seconds (fmt_f "%.2f" p_cpu);
              Printf.sprintf "%s / %s"
                (Text_table.group_thousands r.P.robdd_peak)
                (fmt_int_opt p_peak);
              Printf.sprintf "%s / %s"
                (Text_table.group_thousands r.P.robdd_size)
                (fmt_int_opt p_robdd);
              Printf.sprintf "%s / %s"
                (Text_table.group_thousands r.P.romdd_size)
                (fmt_int_opt p_romdd);
              Printf.sprintf "%.3f / %s" r.P.yield_lower (fmt_f "%.3f" p_yield);
            ]
      | Error f ->
          let peak =
            match f with
            | P.Node_budget { peak; _ } -> Text_table.group_thousands peak
            | P.Cpu_budget _ -> "-"
          in
          Text_table.add_row t [ label; "-"; "-"; peak; "-"; "-"; "-" ]);
      pf "  ... %s done\n%!" label)
    (rows_for mode ~sweep:false);
  print_string (Text_table.render t);
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Fig. 2: the worked example                                          *)
(* ------------------------------------------------------------------ *)

let fig2 _mode =
  pf "== Fig. 2: worked ROMDD example (F = x1*x2 + x3, M = 2, order v1 v2 w) ==\n\n";
  let ft = Socy_logic.Parse.fault_tree ~name:"fig2" "x0 & x1 | x2" in
  let lethal =
    {
      Model.count = Socy_defects.Distribution.of_array [| 0.4; 0.3; 0.2; 0.1 |];
      component = Array.make 3 (1.0 /. 3.0);
      p_lethal = 0.1;
    }
  in
  let config = { (config_for ~mv:Scheme.Vw ()) with P.epsilon = 0.11 } in
  match P.Artifacts.build ~config ft lethal with
  | Error _ -> pf "unexpected failure\n"
  | Ok a ->
      let mdd = a.P.Artifacts.mdd and root = a.P.Artifacts.mdd_root in
      pf "M = %d, ROMDD size = %d (6 nonterminals + 2 terminals, as drawn)\n"
        a.P.Artifacts.m (Mdd.size mdd root);
      pf "\nGraphviz of the ROMDD:\n%s\n" (Mdd.to_dot mdd root);
      let r = P.Artifacts.report a ~cpu_seconds:0.0 in
      pf "P(G = 1) = %.9f, Y_M = %.9f (hand value 0.4 + 0.3*2/3 + 0.2*2/9 = %.9f)\n"
        r.P.p_unusable r.P.yield_lower
        (0.4 +. (0.3 *. 2.0 /. 3.0) +. (0.2 *. 2.0 /. 9.0));
      let direct = Socy_core.Direct.build mdd a.P.Artifacts.problem a.P.Artifacts.scheme in
      pf "direct MDD-APPLY construction gives the same canonical node: %b\n\n"
        (direct = root)

(* ------------------------------------------------------------------ *)
(* Figs. 2-3: yield vs expected defect count, evaluated as one batch   *)
(* ------------------------------------------------------------------ *)

(* Every (benchmark x lambda) curve point is an independent pipeline run,
   so the curves are one campaign grid; its one-domain rerun records the
   sequential-equivalence drift per point, which compare.exe fails on when
   it ever exceeds 1e-12. *)
let curves mode =
  pf "== Figs. 2-3: yield vs expected manufacturing defects, batched ==\n\n";
  let par =
    run_campaign
      {
        (bench_grid "curves") with
        benchmarks =
          (if mode = Quick then [ "MS2"; "ESEN4x1" ] else [ "MS2"; "MS4"; "ESEN4x1" ]);
        lambdas = [ 2.0; 5.0; 10.0; 15.0; 20.0; 30.0 ];
      }
  in
  let seq, drift = Campaign.sequential_rerun par in
  let t =
    Text_table.create
      ~aligns:[ Left; Right; Right; Right; Right ]
      [ "benchmark"; "lambda"; "Y_M"; "Y_M+eps"; "seq drift" ]
  in
  List.iter2
    (fun ({ Campaign.point = p; result } : Campaign.row) row_drift ->
      let label = p.Campaign.source and lambda = p.Campaign.lambda in
      match (result, row_drift) with
      | Ok s, Some d ->
          record ~section:"curves"
            ~label:(Printf.sprintf "%s, lambda=%g" label lambda)
            [
              ("lambda", Json.Float lambda);
              ("yield_lower", Json.Float s.Campaign.yield_lower);
              ("yield_upper", Json.Float s.Campaign.yield_upper);
              (* |parallel - one-domain| on the same job; compare.exe
                 fails the bench when this ever exceeds 1e-12 *)
              ("seq_yield_drift", Json.Float d);
            ];
          Text_table.add_row t
            [
              label;
              Printf.sprintf "%g" lambda;
              Printf.sprintf "%.6f" s.Campaign.yield_lower;
              Printf.sprintf "%.6f" s.Campaign.yield_upper;
              Printf.sprintf "%.1e" d;
            ]
      | _ ->
          Text_table.add_row t
            [ label; Printf.sprintf "%g" lambda; Campaign.status_name result; "-"; "-" ])
    par.Campaign.rows drift.Campaign.row_drifts;
  print_string (Text_table.render t);
  let wall_par = par.Campaign.wall_s and wall_seq = seq.Campaign.wall_s in
  let speedup = if wall_par > 0.0 then wall_seq /. wall_par else 0.0 in
  record ~section:"curves" ~label:"summary"
    [
      ("domains", Json.Int par.Campaign.domains);
      ("jobs", Json.Int (List.length par.Campaign.rows));
      ("wall_s", Json.Float wall_par);
      ("wall_sequential_s", Json.Float wall_seq);
      ("speedup_vs_sequential", Json.Float speedup);
      ("seq_yield_drift_max", Json.Float drift.Campaign.max_drift);
    ];
  pf "\n%d jobs: %.2f s on %d domains, %.2f s sequential (%.2fx), max drift %.1e\n\n"
    (List.length par.Campaign.rows)
    wall_par par.Campaign.domains wall_seq speedup drift.Campaign.max_drift

(* ------------------------------------------------------------------ *)
(* Monte Carlo comparison (the paper's "simulation" alternative)       *)
(* ------------------------------------------------------------------ *)

let montecarlo mode =
  pf "== Monte Carlo baseline vs the combinatorial method ==\n\n";
  let t =
    Text_table.create
      ~aligns:[ Left; Right; Right; Right; Right ]
      [ "benchmark"; "method [Y_M, Y_M+eps]"; "MC estimate"; "MC 95% CI"; "trials" ]
  in
  let rows = rows_for (if mode = Full then Default else Quick) ~sweep:true in
  List.iter
    (fun row ->
      match P.run ~config:(config_for ()) row.S.instance.S.circuit (S.model row) with
      | Error _ -> ()
      | Ok r ->
          let mc =
            Socy_core.Montecarlo.run ~seed:2003L ~trials:200_000
              row.S.instance.S.circuit (S.lethal row)
          in
          Text_table.add_row t
            [
              S.row_label row;
              Printf.sprintf "[%.4f, %.4f]" r.P.yield_lower r.P.yield_upper;
              Printf.sprintf "%.4f" mc.Socy_core.Montecarlo.estimate;
              Printf.sprintf "[%.4f, %.4f]" mc.Socy_core.Montecarlo.ci_low
                mc.Socy_core.Montecarlo.ci_high;
              string_of_int mc.Socy_core.Montecarlo.trials;
            ])
    rows;
  print_string (Text_table.render t);
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Section 2 revisited: the coded route vs direct multiple-valued APPLY *)
(* ------------------------------------------------------------------ *)

(* Every Table 4 row the mode's budget admits, cold on each route in
   managers of its own, through the same Pipeline.run_lethal. Each route
   is a bench record ("<row> coded", "<row> direct") under the seconds
   and yield gates; the routes must agree on M, ROMDD size and every bit
   of the yield, or the bench fails. *)
let route mode =
  pf "== Section 2 revisited: coded-ROBDD route vs direct ROMDD APPLY ==\n";
  pf "   (the paper builds the coded ROBDD and converts it because direct\n";
  pf "    APPLY was slower; both routes give the same ROMDD and yield)\n\n";
  let t =
    Text_table.create
      ~aligns:[ Left; Right; Right; Right; Right; Right ]
      [ "benchmark"; "M"; "ROMDD"; "coded (s)"; "direct (s)"; "speedup" ]
  in
  List.iter
    (fun row ->
      let label = S.row_label row in
      let circuit = row.S.instance.S.circuit and lethal = S.lethal row in
      let run route =
        let config = P.Config.make ~route () in
        let t0 = wall () in
        match P.run_lethal ~config circuit lethal with
        | Ok r -> (r, wall () -. t0)
        | Error f -> failwith (Printf.sprintf "route: %s: %s" label (P.failure_to_string f))
      in
      let coded, coded_s = run P.Coded in
      let direct, direct_s = run P.Direct in
      if
        coded.P.m <> direct.P.m
        || coded.P.romdd_size <> direct.P.romdd_size
        || Int64.bits_of_float coded.P.yield_lower <> Int64.bits_of_float direct.P.yield_lower
        || Int64.bits_of_float coded.P.yield_upper <> Int64.bits_of_float direct.P.yield_upper
      then
        failwith
          (Printf.sprintf "route: %s: coded (M %d, ROMDD %d, Y %h) and direct (M %d, ROMDD %d, Y %h) differ"
             label coded.P.m coded.P.romdd_size coded.P.yield_lower direct.P.m
             direct.P.romdd_size direct.P.yield_lower);
      let fields (r : P.report) wall_s extra =
        [
          ("m", Json.Int r.P.m);
          ("cpu_s", Json.Float r.P.cpu_seconds);
          ("wall_s", Json.Float wall_s);
          ("romdd_size", Json.Int r.P.romdd_size);
          ("yield_lower", Json.Float r.P.yield_lower);
        ]
        @ extra
      in
      record ~section:"route" ~label:(label ^ " coded")
        (fields coded coded_s [ ("robdd_peak", Json.Int coded.P.robdd_peak) ]);
      record ~section:"route" ~label:(label ^ " direct") (fields direct direct_s []);
      Text_table.add_row t
        [
          label;
          string_of_int coded.P.m;
          Text_table.group_thousands coded.P.romdd_size;
          Printf.sprintf "%.3f" coded_s;
          Printf.sprintf "%.3f" direct_s;
          Printf.sprintf "%.1fx" (coded_s /. Float.max direct_s 1e-9);
        ];
      pf "  ... %s done\n%!" label)
    (rows_for mode ~sweep:true);
  print_string (Text_table.render t);
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Intra-problem parallelism: one problem on a domain team             *)
(* ------------------------------------------------------------------ *)

(* Sequential vs 4-domain build+convert of the same MS4 row — the
   sequential build and layer-parallel conversion behind --par-domains.
   Recorded only when the host recommends at least 2 domains: an
   oversubscribed team on a 1-core runner measures scheduler noise, not
   the conversion, and compare.exe gates par_speedup
   only on records with par_domains >= 4. The timings are wall_* fields
   (a domain team makes cpu-time meaningless as a latency measure), so
   they stay exempt from the 25% cpu gate; par_yield_drift is gated at
   1e-12 whenever the record exists. *)
let par _mode =
  pf "== Intra-problem parallelism: MS4 build+convert on a domain team ==\n\n";
  let recommended = Pool.default_domains () in
  let domains = min 4 recommended in
  if domains < 2 then
    pf "   skipped: host recommends %d domain(s); need at least 2\n\n" recommended
  else begin
    let row =
      List.find (fun r -> S.row_label r = "MS4, l'=1") (S.table_rows ())
    in
    let circuit = row.S.instance.S.circuit and lethal = S.lethal row in
    let build config =
      let t0 = wall () in
      match P.Artifacts.build ~config circuit lethal with
      | Ok a -> (wall () -. t0, P.Artifacts.report a ~cpu_seconds:0.0)
      | Error f -> failwith ("par section: MS4 failed: " ^ P.failure_to_string f)
    in
    (* best of three: each parallel run respawns its team, so the min is
       the steady-state figure with spawn cost amortized away *)
    let best config =
      let rec go n ((tw, _) as acc) =
        if n = 0 then acc
        else
          let (tw', _) as r = build config in
          go (n - 1) (if tw' < tw then r else acc)
      in
      go 2 (build config)
    in
    let wall_seq, r_seq = best (config_for ()) in
    let wall_par, r_par =
      best (P.Config.with_par_domains domains (config_for ()))
    in
    let drift = Float.abs (r_seq.P.yield_lower -. r_par.P.yield_lower) in
    let speedup = if wall_par > 0.0 then wall_seq /. wall_par else 0.0 in
    record ~section:"par" ~label:"MS4, l'=1 build+convert"
      [
        ("par_domains", Json.Int domains);
        ("wall_sequential_s", Json.Float wall_seq);
        ("wall_par_s", Json.Float wall_par);
        ("par_speedup", Json.Float speedup);
        ("par_yield_drift", Json.Float drift);
        ("robdd_size", Json.Int r_par.P.robdd_size);
        ("romdd_size", Json.Int r_par.P.romdd_size);
      ];
    pf "  sequential %.3f s, %d domains %.3f s -> %.2fx, yield drift %.1e\n\n"
      wall_seq domains wall_par speedup drift
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro _mode =
  pf "== Micro-benchmarks (bechamel, monotonic clock) ==\n\n";
  let ms2 = S.ms 2 in
  let row = List.hd (S.table_rows ()) in
  let lethal = S.lethal row in
  let ms2_circuit = ms2.S.circuit in
  let open Bechamel in
  let artifacts =
    match P.Artifacts.build ~config:(config_for ()) ms2_circuit lethal with
    | Ok a -> a
    | Error _ -> assert false
  in
  let tests =
    [
      Test.make ~name:"robdd-compile-ms2-fault-tree"
        (Staged.stage (fun () ->
             let m =
               Socy_bdd.Manager.create ~num_vars:ms2_circuit.C.num_inputs ()
             in
             ignore (Socy_bdd.Compile.of_circuit m ms2_circuit ~var_of_input:Fun.id)));
      Test.make ~name:"romdd-probability-traversal-ms2"
        (Staged.stage (fun () ->
             ignore
               (Mdd.probability artifacts.P.Artifacts.mdd
                  artifacts.P.Artifacts.mdd_root
                  ~p:(P.Artifacts.probability_of_level artifacts))));
      (* the vectorized all-k sweep: one traversal prices every Y_k, so it
         competes with (M + 3) runs of the scalar traversal above *)
      Test.make ~name:"romdd-sweep-all-k-ms2"
        (Staged.stage (fun () ->
             let nk, p = P.Artifacts.sweep_layout artifacts in
             ignore
               (Mdd.probability_sweep artifacts.P.Artifacts.mdd
                  artifacts.P.Artifacts.mdd_root ~nk ~p)));
      Test.make ~name:"monte-carlo-10k-trials-ms2"
        (Staged.stage (fun () ->
             ignore (Socy_core.Montecarlo.run ~trials:10_000 ms2_circuit lethal)));
      Test.make ~name:"pipeline-ms2-end-to-end"
        (Staged.stage (fun () ->
             match P.run_lethal ~config:(config_for ()) ms2_circuit lethal with
             | Ok r -> ignore r.P.yield_lower
             | Error _ -> ()));
    ]
  in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) () in
      let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              record ~section:"micro" ~label:name [ ("ns_per_run", Json.Float est) ];
              pf "%-40s %14.0f ns/run\n" name est
          | Some _ | None -> pf "%-40s (no estimate)\n" name)
        analyzed)
    tests;
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig2", fig2);
    ("curves", curves);
    ("mc", montecarlo);
    ("route", route);
    ("par", par);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode =
    if List.mem "--quick" args then Quick
    else if List.mem "--full" args then Full
    else Default
  in
  let mode_name =
    match mode with Quick -> "quick" | Default -> "default" | Full -> "full"
  in
  let json_path =
    if List.mem "--no-json" args then None
    else
      match
        List.find_map
          (fun a ->
            if String.length a > 7 && String.sub a 0 7 = "--json=" then
              Some (String.sub a 7 (String.length a - 7))
            else None)
          args
      with
      | Some path -> Some path
      | None -> Some ("BENCH_" ^ mode_name ^ ".json")
  in
  (* --trace=FILE turns the observability layer on for the whole bench run
     and flushes the timeline at the end. Leaving it off keeps the bench
     identical to the gated baseline (tracing disabled is ~free, but the
     enabled flag also switches the Obs aggregates on). *)
  let trace_path =
    List.find_map
      (fun a ->
        if String.length a > 8 && String.sub a 0 8 = "--trace=" then
          Some (String.sub a 8 (String.length a - 8))
        else None)
      args
  in
  if trace_path <> None then Obs.set_enabled true;
  let wanted =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  let wanted = if wanted = [] then List.map fst sections else wanted in
  let t0 = wall () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f mode
      | None ->
          pf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    wanted;
  let total = wall () -. t0 in
  Option.iter (fun path -> write_records ~path ~mode:mode_name ~wall_s:total) json_path;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Json.to_channel oc (Trace.to_json ());
      close_out oc;
      pf "wrote %d trace events to %s\n" (Trace.event_count ()) path)
    trace_path;
  pf "total wall time: %.1f s\n" total
