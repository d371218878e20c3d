(* Tests for the campaign layer: the declarative gate table must
   reproduce the historical bench/compare.ml policy exactly, the trend
   detector must flag monotone slow creep while tolerating noise, and a
   campaign must survive the run -> store -> load -> aggregate -> diff
   round trip bit-for-bit (including through the socyield-campaign/1
   codec, property-tested below). *)

module Json = Socy_obs.Json
module Bench = Socy_obs.Doc.Bench
module Gates = Socy_campaign.Gates
module Trend = Socy_campaign.Trend
module Store = Socy_campaign.Store
module Campaign = Socy_campaign.Campaign
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics

let gates = Gates.default_gates

let failures outcomes = List.filter (fun o -> o.Gates.failed) outcomes

let failed_fields outcomes =
  List.map (fun o -> o.Gates.field) (failures outcomes)

(* ------------------------------------------------------------------ *)
(* Gate table: the historical compare.ml policy                        *)
(* ------------------------------------------------------------------ *)

let test_gate_yield_drift () =
  let base = [ ("yield_lower", Json.Float 0.9) ] in
  let ok = Gates.check_pair ~gates ~label:"r" ~base ~fresh:base in
  Alcotest.(check int) "identical yield passes" 0 (List.length (failures ok));
  let drifted =
    Gates.check_pair ~gates ~label:"r" ~base
      ~fresh:[ ("yield_lower", Json.Float 0.9000001) ]
  in
  Alcotest.(check (list string))
    "drift fails" [ "yield_lower" ] (failed_fields drifted);
  let missing = Gates.check_pair ~gates ~label:"r" ~base ~fresh:[] in
  Alcotest.(check (list string))
    "yield missing from fresh fails" [ "yield_lower" ] (failed_fields missing)

let test_gate_seconds_step () =
  let base = [ ("cpu_s", Json.Float 0.2) ] in
  let slow =
    Gates.check_pair ~gates ~label:"r" ~base ~fresh:[ ("cpu_s", Json.Float 0.26) ]
  in
  Alcotest.(check (list string)) "26% -> 30% regress fails" [ "cpu_s" ]
    (failed_fields slow);
  let within =
    Gates.check_pair ~gates ~label:"r" ~base ~fresh:[ ("cpu_s", Json.Float 0.24) ]
  in
  Alcotest.(check int) "within 25% passes" 0 (List.length (failures within));
  (* Sub-noise-floor baselines are never gated, however bad the ratio. *)
  let noisy =
    Gates.check_pair ~gates ~label:"r"
      ~base:[ ("cpu_s", Json.Float 0.01) ]
      ~fresh:[ ("cpu_s", Json.Float 0.5) ]
  in
  Alcotest.(check int) "noise floor exempts" 0 (List.length noisy);
  (* wall_/trace_/gc_ prefixes are recorded but never gated. *)
  let exempt =
    Gates.check_pair ~gates ~label:"r"
      ~base:
        [
          ("wall_s", Json.Float 1.0);
          ("trace_overhead_s", Json.Float 1.0);
          ("gc_major_s", Json.Float 1.0);
        ]
      ~fresh:
        [
          ("wall_s", Json.Float 9.0);
          ("trace_overhead_s", Json.Float 9.0);
          ("gc_major_s", Json.Float 9.0);
        ]
  in
  Alcotest.(check int) "exempt prefixes" 0 (List.length exempt);
  let missing = Gates.check_pair ~gates ~label:"r" ~base ~fresh:[] in
  Alcotest.(check (list string))
    "gated seconds missing from fresh fails" [ "cpu_s" ] (failed_fields missing)

let test_gate_peak_step () =
  let base = [ ("robdd_peak", Json.Int 1000) ] in
  let grown =
    Gates.check_pair ~gates ~label:"r" ~base
      ~fresh:[ ("robdd_peak", Json.Int 1101) ]
  in
  Alcotest.(check (list string)) ">10% growth fails" [ "robdd_peak" ]
    (failed_fields grown);
  let within =
    Gates.check_pair ~gates ~label:"r" ~base
      ~fresh:[ ("robdd_peak", Json.Int 1100) ]
  in
  Alcotest.(check int) "10% exactly passes" 0 (List.length (failures within));
  (* Unlike seconds, peaks have no noise floor: tiny baselines still gate. *)
  let tiny =
    Gates.check_pair ~gates ~label:"r"
      ~base:[ ("peak_nodes", Json.Int 10) ]
      ~fresh:[ ("peak_nodes", Json.Int 12) ]
  in
  Alcotest.(check (list string)) "small peak still gated" [ "peak_nodes" ]
    (failed_fields tiny)

let test_gate_fresh_only () =
  let drift =
    Gates.check_fresh ~gates ~label:"r"
      [ ("seq_yield_drift", Json.Float 1e-9) ]
  in
  Alcotest.(check (list string)) "seq drift fails" [ "seq_yield_drift" ]
    (failed_fields drift);
  let ok_drift =
    Gates.check_fresh ~gates ~label:"r" [ ("seq_yield_drift", Json.Float 0.0) ]
  in
  Alcotest.(check int) "zero drift passes" 0 (List.length (failures ok_drift));
  let slow_par =
    Gates.check_fresh ~gates ~label:"r"
      [ ("par_domains", Json.Int 4); ("par_speedup", Json.Float 1.2) ]
  in
  Alcotest.(check (list string)) "speedup below floor fails" [ "par_speedup" ]
    (failed_fields slow_par);
  let no_speedup =
    Gates.check_fresh ~gates ~label:"r" [ ("par_domains", Json.Int 4) ]
  in
  Alcotest.(check int) "missing par_speedup at 4 domains fails" 1
    (List.length (failures no_speedup));
  let small_host =
    Gates.check_fresh ~gates ~label:"r" [ ("par_domains", Json.Int 2) ]
  in
  Alcotest.(check int) "gate self-disables under 4 domains" 0
    (List.length small_host);
  let fast_par =
    Gates.check_fresh ~gates ~label:"r"
      [ ("par_domains", Json.Int 4); ("par_speedup", Json.Float 1.8) ]
  in
  Alcotest.(check int) "speedup above floor passes" 0
    (List.length (failures fast_par))

let bench_of records =
  {
    Bench.mode = "test";
    total_wall_s = 0.0;
    records =
      List.map
        (fun (section, row, fields) -> { Bench.section; row; fields })
        records;
  }

let test_gate_docs_row_presence () =
  let base = bench_of [ ("s", "a", [ ("cpu_s", Json.Float 0.2) ]) ] in
  let fresh = bench_of [ ("s", "b", [ ("cpu_s", Json.Float 0.2) ]) ] in
  let outcomes = Gates.check_docs ~gates ~base ~fresh in
  let missing =
    List.filter (fun o -> o.Gates.check = Gates.Row_missing) outcomes
  in
  let fresh_only =
    List.filter (fun o -> o.Gates.check = Gates.Row_new) outcomes
  in
  Alcotest.(check int) "baseline row gone fails" 1 (List.length missing);
  Alcotest.(check bool) "row_missing failed" true
    (List.for_all (fun o -> o.Gates.failed) missing);
  Alcotest.(check int) "fresh-only row noted" 1 (List.length fresh_only);
  Alcotest.(check bool) "row_new never fails" true
    (List.for_all (fun o -> not o.Gates.failed) fresh_only)

(* ------------------------------------------------------------------ *)
(* Trend detection                                                     *)
(* ------------------------------------------------------------------ *)

let history values =
  List.mapi
    (fun i v ->
      {
        Trend.snap_label = Printf.sprintf "snap%02d" i;
        bench = bench_of [ ("s", "r", [ ("cpu_s", Json.Float v) ]) ];
      })
    values

let creeps findings =
  List.filter (function Trend.Creep _ -> true | _ -> false) findings

let test_trend_creep_detected () =
  (* +4%ish per step: each step inside the 25% gate, 15% cumulative. *)
  let findings = Trend.detect (history [ 0.10; 0.104; 0.109; 0.115 ]) in
  match creeps findings with
  | [ Trend.Creep { first; last; ratio; series } ] ->
      Alcotest.(check (float 1e-9)) "first" 0.10 first;
      Alcotest.(check (float 1e-9)) "last" 0.115 last;
      Alcotest.(check bool) "ratio beyond creep factor" true (ratio > 1.10);
      Alcotest.(check string) "field" "cpu_s" series.Trend.field
  | fs -> Alcotest.failf "expected exactly one creep, got %d" (List.length fs)

let test_trend_noise_tolerated () =
  (* Same 15% endpoint-to-endpoint rise, but through a >5% dip: a step
     regression recovered, not creep — must not fire. *)
  let findings = Trend.detect (history [ 0.10; 0.09; 0.112; 0.115 ]) in
  Alcotest.(check int) "non-monotone never creeps" 0
    (List.length (creeps findings))

let test_trend_unchanged_history_passes () =
  let findings = Trend.detect (history [ 0.10; 0.10; 0.10; 0.10 ]) in
  Alcotest.(check int) "flat history clean" 0 (List.length findings)

let test_trend_noise_floor () =
  (* 100% creep, but from 10ms: sub-floor series are scheduler noise. *)
  let findings = Trend.detect (history [ 0.010; 0.013; 0.016; 0.020 ]) in
  Alcotest.(check int) "sub-floor series skipped" 0
    (List.length (creeps findings))

let test_trend_window () =
  (* Ancient creep outside the trailing window must not fire: the last
     [window] points are flat. *)
  let values = [ 0.05; 0.06; 0.07; 0.12; 0.12; 0.12; 0.12 ] in
  let config = { Trend.default_config with Trend.window = 4 } in
  let findings = Trend.detect ~config (history values) in
  Alcotest.(check int) "creep outside window ignored" 0
    (List.length (creeps findings))

let test_trend_missing_row () =
  let s label rows = { Trend.snap_label = label; bench = bench_of rows } in
  let row name = ("s", name, [ ("cpu_s", Json.Float 0.2) ]) in
  let findings =
    Trend.detect
      [ s "one" [ row "a"; row "b" ]; s "two" [ row "a"; row "b" ];
        s "three" [ row "a" ] ]
  in
  match
    List.filter (function Trend.Missing_row _ -> true | _ -> false) findings
  with
  | [ Trend.Missing_row { row; last_seen; _ } ] ->
      Alcotest.(check string) "which row" "b" row;
      Alcotest.(check string) "last seen" "two" last_seen
  | fs -> Alcotest.failf "expected one missing row, got %d" (List.length fs)

let test_trend_slope () =
  let series =
    {
      Trend.section = "s";
      row = "r";
      field = "cpu_s";
      unit = Gates.Seconds;
      points = [ ("a", 0.1); ("b", 0.2); ("c", 0.3) ];
    }
  in
  Alcotest.(check (float 1e-9)) "least squares slope" 0.1 (Trend.slope series)

(* ------------------------------------------------------------------ *)
(* Store + campaign round trip                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "socy-campaign-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let tiny_grid name =
  {
    Campaign.name;
    benchmarks = [ "MS2" ];
    lambdas = [ 10.0 ];
    epsilons = [ 1e-3 ];
    mv_orders = [ Scheme.Wv ];
    bit_order = Scheme.Ml;
    alpha = Socy_benchmarks.Suite.alpha;
    node_limit = 1_000_000;
    cpu_limit = None;
    reorder = false;
    par_domains = 1;
  }

let run_tiny ?(name = "t") ~now () =
  match Campaign.run ~domains:1 ~now (tiny_grid name) with
  | Ok c -> c
  | Error msg -> Alcotest.failf "campaign run failed: %s" msg

let test_campaign_round_trip () =
  with_temp_dir (fun root ->
      let c1 = run_tiny ~now:1000.0 () in
      let c2 = run_tiny ~now:2000.0 () in
      let e1 = Campaign.save ~root c1 in
      let e2 = Campaign.save ~root c2 in
      Alcotest.(check bool) "distinct run dirs" true (e1.Store.id <> e2.Store.id);
      let runs =
        match Campaign.load_all ~root with
        | Ok runs -> runs
        | Error msg -> Alcotest.failf "load_all: %s" msg
      in
      Alcotest.(check int) "both runs listed" 2 (List.length runs);
      let ids = List.map fst runs in
      Alcotest.(check (list string))
        "chronological order" [ e1.Store.id; e2.Store.id ] ids;
      let c1' = List.assoc e1.Store.id runs in
      Alcotest.(check bool) "load returns the saved campaign" true (c1 = c1');
      (* Aggregate + diff over the store: same workload twice on one
         domain is deterministic in everything but cpu_s, so the diff
         must be clean. *)
      let findings = Campaign.trend_findings runs in
      let text = Campaign.render_text ~runs ~findings in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "report names the runs" true
        (List.for_all (contains text) ids);
      let d =
        Campaign.diff ~old_label:e1.Store.id ~new_label:e2.Store.id c1 c2
      in
      Alcotest.(check bool) "identical reruns diff clean" false
        (Campaign.diff_failed d))

let test_campaign_diff_regression () =
  let c1 = run_tiny ~now:1000.0 () in
  (* Inject a peak regression into the "fresh" run. *)
  let c2 =
    {
      c1 with
      Campaign.rows =
        List.map
          (fun (r : Campaign.row) ->
            match r.Campaign.result with
            | Ok s ->
                {
                  r with
                  Campaign.result =
                    Ok { s with Campaign.robdd_peak = s.Campaign.robdd_peak * 2 };
                }
            | Error _ -> r)
          c1.Campaign.rows;
    }
  in
  let d = Campaign.diff ~old_label:"old" ~new_label:"new" c1 c2 in
  Alcotest.(check bool) "doubled peak fails the diff" true
    (Campaign.diff_failed d);
  (* Status flips: ok -> failed is a regression, failed -> ok is not. *)
  let cancelled =
    {
      c1 with
      Campaign.rows =
        List.map
          (fun (r : Campaign.row) ->
            { r with Campaign.result = Error Campaign.Cancelled })
          c1.Campaign.rows;
    }
  in
  let worse = Campaign.diff ~old_label:"old" ~new_label:"new" c1 cancelled in
  Alcotest.(check bool) "ok -> cancelled fails" true
    (Campaign.diff_failed worse);
  let better = Campaign.diff ~old_label:"old" ~new_label:"new" cancelled c1 in
  Alcotest.(check bool) "cancelled -> ok passes" false
    (Campaign.diff_failed better)

let test_campaign_to_bench () =
  let c = run_tiny ~name:"bview" ~now:1000.0 () in
  let b = Campaign.to_bench c in
  Alcotest.(check int) "one record per row" (List.length c.Campaign.rows)
    (List.length b.Bench.records);
  match b.Bench.records with
  | r :: _ ->
      Alcotest.(check string) "section is campaign name" "bview"
        r.Bench.section;
      Alcotest.(check bool) "cpu_s present" true
        (Bench.number "cpu_s" r <> None);
      Alcotest.(check bool) "yield present" true
        (Bench.number "yield_lower" r <> None)
  | [] -> Alcotest.fail "no records"

let test_store_rejects_garbage () =
  with_temp_dir (fun root ->
      Store.(
        let e = create_run ~root ~name:"bad" ~now:0.0 () in
        let oc = open_out (campaign_file e) in
        output_string oc "not json";
        close_out oc);
      match Campaign.load_all ~root with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage campaign.json must not load")

let test_store_same_second_collision () =
  with_temp_dir (fun root ->
      let e1 = Store.create_run ~root ~name:"x" ~now:5.0 () in
      let e2 = Store.create_run ~root ~name:"x" ~now:5.0 () in
      Alcotest.(check bool) "suffix disambiguates" true
        (e1.Store.id <> e2.Store.id))

(* Values the defect model or the pipeline would reject must come back
   as a typed [Error] from [validate] and [run], never as an exception. *)
let test_validate_rejects_values () =
  let g = tiny_grid "v" in
  let rejected what grid =
    (match Campaign.validate grid with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: validate accepted" what);
    match Campaign.run ~domains:1 grid with
    | Error msg ->
        Alcotest.(check bool) (what ^ ": one-line message") false
          (String.contains msg '\n')
    | Ok _ -> Alcotest.failf "%s: run accepted" what
    | exception e ->
        Alcotest.failf "%s: run raised %s" what (Printexc.to_string e)
  in
  Alcotest.(check bool) "tiny grid is valid" true (Campaign.validate g = Ok ());
  rejected "negative lambda" { g with Campaign.lambdas = [ 10.0; -1.0 ] };
  rejected "zero lambda" { g with Campaign.lambdas = [ 0.0 ] };
  rejected "infinite lambda" { g with Campaign.lambdas = [ infinity ] };
  rejected "nan lambda" { g with Campaign.lambdas = [ nan ] };
  rejected "zero alpha" { g with Campaign.alpha = 0.0 };
  rejected "nan alpha" { g with Campaign.alpha = nan };
  rejected "zero epsilon" { g with Campaign.epsilons = [ 0.0 ] };
  rejected "epsilon one" { g with Campaign.epsilons = [ 1e-3; 1.0 ] };
  rejected "nan epsilon" { g with Campaign.epsilons = [ nan ] };
  rejected "node limit 0" { g with Campaign.node_limit = 0 };
  rejected "zero cpu limit" { g with Campaign.cpu_limit = Some 0.0 };
  rejected "negative cpu limit" { g with Campaign.cpu_limit = Some (-1.0) };
  rejected "unknown benchmark" { g with Campaign.benchmarks = [ "MS2"; "XX" ] };
  rejected "empty axis" { g with Campaign.mv_orders = [] }

(* The one grid runner is deterministic: the same grid on one domain and
   on three gives equal rows field by field, floats bit for bit, budget
   failures included. Only the timing field [cpu_s] may differ. *)
let test_run_domains_deterministic () =
  let grid =
    {
      (tiny_grid "det") with
      Campaign.benchmarks = [ "MS2"; "ESEN4x1"; "ESEN4x2" ];
      mv_orders = [ Scheme.Heur H.Weight; Scheme.Wv ];
      node_limit = 50_000;
    }
  in
  let run domains =
    match Campaign.run ~domains grid with
    | Ok c -> c
    | Error msg -> Alcotest.failf "campaign run failed: %s" msg
  in
  let seq = run 1 and par = run 3 in
  let bits f = Int64.bits_of_float f in
  let budget_rows =
    List.filter
      (fun (r : Campaign.row) ->
        match r.Campaign.result with
        | Error (Campaign.Node_budget_hit _) -> true
        | _ -> false)
      seq.Campaign.rows
  in
  Alcotest.(check bool) "grid has a node-budget row" true (budget_rows <> []);
  Alcotest.(check int) "same row count"
    (List.length seq.Campaign.rows)
    (List.length par.Campaign.rows);
  List.iter2
    (fun (a : Campaign.row) (b : Campaign.row) ->
      let label = Campaign.point_label a.Campaign.point in
      Alcotest.(check bool) (label ^ ": same point") true
        (a.Campaign.point = b.Campaign.point);
      match (a.Campaign.result, b.Campaign.result) with
      | Ok x, Ok y ->
          Alcotest.(check int) (label ^ ": m") x.Campaign.m y.Campaign.m;
          Alcotest.(check int64) (label ^ ": yield_lower bits")
            (bits x.Campaign.yield_lower) (bits y.Campaign.yield_lower);
          Alcotest.(check int64) (label ^ ": yield_upper bits")
            (bits x.Campaign.yield_upper) (bits y.Campaign.yield_upper);
          Alcotest.(check int) (label ^ ": robdd_peak") x.Campaign.robdd_peak
            y.Campaign.robdd_peak;
          Alcotest.(check int) (label ^ ": robdd_size") x.Campaign.robdd_size
            y.Campaign.robdd_size;
          Alcotest.(check int) (label ^ ": romdd_size") x.Campaign.romdd_size
            y.Campaign.romdd_size
      | Error (Campaign.Node_budget_hit p), Error (Campaign.Node_budget_hit q)
        ->
          Alcotest.(check int) (label ^ ": peak at failure") p q
      | ra, rb ->
          Alcotest.failf "%s: %s on one domain, %s on three" label
            (Campaign.status_name ra) (Campaign.status_name rb))
    seq.Campaign.rows par.Campaign.rows;
  let _, drift = Campaign.sequential_rerun par in
  Alcotest.(check (float 0.0)) "sequential_rerun: no drift" 0.0
    drift.Campaign.max_drift;
  Alcotest.(check int) "sequential_rerun: no status mismatch" 0
    drift.Campaign.status_mismatches

(* ------------------------------------------------------------------ *)
(* Codec property                                                      *)
(* ------------------------------------------------------------------ *)

let gen_mv =
  QCheck.Gen.oneofl
    [ Scheme.Wv; Scheme.Wvr; Scheme.Vw; Scheme.Vrw; Scheme.Heur H.Weight ]

let gen_bit = QCheck.Gen.oneofl [ Scheme.Ml; Scheme.Lm ]

(* Floats that survive text round trips exactly: dyadic rationals. *)
let gen_float = QCheck.Gen.(map (fun n -> float_of_int n /. 16.0) (int_range 0 10000))

let gen_name =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 8) (char_range 'a' 'z')))

let gen_point =
  QCheck.Gen.(
    map
      (fun (source, lambda, epsilon, mv) ->
        { Campaign.source; lambda; epsilon; mv })
      (quad gen_name gen_float gen_float gen_mv))

let gen_result =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun (m, (yl, yu), (peak, size), cpu) ->
              Ok
                {
                  Campaign.m;
                  yield_lower = yl;
                  yield_upper = yu;
                  robdd_peak = peak;
                  robdd_size = size;
                  romdd_size = size + 1;
                  cpu_s = cpu;
                })
            (quad (int_range 0 20) (pair gen_float gen_float)
               (pair (int_range 0 1000000) (int_range 0 1000000))
               gen_float) );
        (1, map (fun n -> Error (Campaign.Node_budget_hit n)) (int_range 0 1000));
        (1, map (fun s -> Error (Campaign.Cpu_budget_hit s)) gen_float);
        (1, return (Error Campaign.Cancelled));
      ])

let gen_campaign =
  QCheck.Gen.(
    map
      (fun ((name, benchmarks, lambdas, epsilons), (mvs, bit, rows), extra) ->
        let created_s, domains, wall_s, node_limit, cpu_limit, reorder, par =
          extra
        in
        {
          Campaign.grid =
            {
              Campaign.name;
              benchmarks;
              lambdas;
              epsilons;
              mv_orders = mvs;
              bit_order = bit;
              alpha = 4.0;
              node_limit;
              cpu_limit;
              reorder;
              par_domains = par;
            };
          created_s;
          domains;
          wall_s;
          rows;
        })
      (triple
         (quad gen_name
            (list_size (int_range 1 3) gen_name)
            (list_size (int_range 1 3) gen_float)
            (list_size (int_range 1 2) gen_float))
         (triple
            (list_size (int_range 1 3) gen_mv)
            gen_bit
            (list_size (int_range 0 6)
               (map2
                  (fun point result -> { Campaign.point; result })
                  gen_point gen_result)))
         (map
            (fun ((c, d), (w, n), (cl, (re, p))) ->
              (c, d, w, n, cl, re, p))
            (triple
               (pair gen_float (int_range 1 16))
               (pair gen_float (int_range 1 10000000))
               (pair (opt gen_float) (pair bool (int_range 1 8)))))))

let prop_campaign_codec_round_trip =
  QCheck.Test.make ~name:"socyield-campaign/1 print/parse round trip"
    ~count:200
    (QCheck.make gen_campaign)
    (fun c ->
      match Campaign.of_string (Json.to_string (Campaign.to_json c)) with
      | Ok c' -> c = c'
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let test_codec_rejects_wrong_schema () =
  (match Campaign.of_string "{\"schema\":\"socyield-bench/1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bench schema must not parse as campaign");
  match Campaign.of_string "{\"schema\":\"socyield-campaign/1\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields must not parse"

(* ------------------------------------------------------------------ *)
(* Bench codec (Doc.Bench)                                             *)
(* ------------------------------------------------------------------ *)

let test_bench_codec_round_trip () =
  let doc =
    bench_of
      [
        ("table4", "MS4", [ ("cpu_s", Json.Float 0.5); ("robdd_peak", Json.Int 7) ]);
        ("par", "MS8", [ ("par_speedup", Json.Float 1.75) ]);
      ]
  in
  let doc = { doc with Bench.mode = "quick"; total_wall_s = 1.5 } in
  match Bench.of_string (Json.to_string (Bench.to_json doc)) with
  | Error msg -> Alcotest.failf "bench round trip: %s" msg
  | Ok doc' ->
      Alcotest.(check bool) "identical" true (doc = doc');
      (match Bench.find doc' ~section:"par" ~row:"MS8" with
      | Some r ->
          Alcotest.(check (option (float 1e-9))) "field lookup" (Some 1.75)
            (Bench.number "par_speedup" r)
      | None -> Alcotest.fail "find lost a record");
      Alcotest.(check bool) "rows flatten" true
        (List.mem_assoc "table4/MS4.cpu_s" (Bench.rows doc'))

let test_bench_codec_rejects () =
  (match Bench.of_string "{\"records\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema-less document must not parse");
  match
    Bench.of_string
      "{\"schema\":\"socyield-bench/1\",\"records\":[{\"row\":\"x\"}]}"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "record without section must not parse"

let () =
  Random.self_init ();
  Alcotest.run "campaign"
    [
      ( "gates",
        [
          Alcotest.test_case "yield drift" `Quick test_gate_yield_drift;
          Alcotest.test_case "seconds step" `Quick test_gate_seconds_step;
          Alcotest.test_case "peak step" `Quick test_gate_peak_step;
          Alcotest.test_case "fresh-only" `Quick test_gate_fresh_only;
          Alcotest.test_case "row presence" `Quick test_gate_docs_row_presence;
        ] );
      ( "trend",
        [
          Alcotest.test_case "creep detected" `Quick test_trend_creep_detected;
          Alcotest.test_case "noise tolerated" `Quick test_trend_noise_tolerated;
          Alcotest.test_case "unchanged history" `Quick
            test_trend_unchanged_history_passes;
          Alcotest.test_case "noise floor" `Quick test_trend_noise_floor;
          Alcotest.test_case "window" `Quick test_trend_window;
          Alcotest.test_case "missing row" `Quick test_trend_missing_row;
          Alcotest.test_case "slope" `Quick test_trend_slope;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "round trip" `Quick test_campaign_round_trip;
          Alcotest.test_case "diff regression" `Quick
            test_campaign_diff_regression;
          Alcotest.test_case "bench view" `Quick test_campaign_to_bench;
          Alcotest.test_case "store rejects garbage" `Quick
            test_store_rejects_garbage;
          Alcotest.test_case "same-second collision" `Quick
            test_store_same_second_collision;
          Alcotest.test_case "rejects wrong schema" `Quick
            test_codec_rejects_wrong_schema;
          Alcotest.test_case "validate rejects bad values" `Quick
            test_validate_rejects_values;
          Alcotest.test_case "one domain = three domains" `Quick
            test_run_domains_deterministic;
          QCheck_alcotest.to_alcotest prop_campaign_codec_round_trip;
        ] );
      ( "bench-doc",
        [
          Alcotest.test_case "round trip" `Quick test_bench_codec_round_trip;
          Alcotest.test_case "rejects malformed" `Quick test_bench_codec_rejects;
        ] );
    ]
