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
module P = Socy_core.Pipeline
module S = Socy_benchmarks.Suite
module Model = Socy_defects.Model
module D = Socy_defects.Distribution
module Obs = Socy_obs.Obs

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
                let build =
                  match s.Campaign.build with
                  | Campaign.Coded b ->
                      Campaign.Coded { b with robdd_peak = b.robdd_peak * 2 }
                  | Campaign.Direct { peak_nodes } ->
                      Campaign.Direct { peak_nodes = peak_nodes * 2 }
                in
                { r with Campaign.result = Ok { s with Campaign.build } }
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

(* A store's runs before routes existed are coded and the next ones
   direct: the diff gates what both routes measure and says the routes
   differ, instead of failing every row on a missing ROBDD peak. *)
let test_campaign_diff_routes () =
  let run route =
    match Campaign.run ~route ~domains:1 ~now:1000.0 (tiny_grid "t") with
    | Ok c -> c
    | Error msg -> Alcotest.failf "campaign run failed: %s" msg
  in
  let coded = run P.Coded and direct = run P.Direct in
  let d = Campaign.diff ~old_label:"coded" ~new_label:"direct" coded direct in
  Alcotest.(check bool) "routes named" true
    (d.Campaign.routes = Some (P.Coded, P.Direct));
  Alcotest.(check bool) "coded -> direct diffs clean" false
    (Campaign.diff_failed d);
  Alcotest.(check bool) "no node count compared" true
    (List.for_all
       (fun (o : Gates.outcome) ->
         not (List.mem o.Gates.field [ "robdd_peak"; "robdd_size"; "peak_nodes" ]))
       d.Campaign.outcomes);
  let same = Campaign.diff ~old_label:"a" ~new_label:"b" direct direct in
  Alcotest.(check bool) "one route: none named" true (same.Campaign.routes = None);
  (* the shared fields are still gated across routes *)
  let drifted =
    {
      direct with
      Campaign.rows =
        List.map
          (fun (r : Campaign.row) ->
            match r.Campaign.result with
            | Ok s ->
                {
                  r with
                  Campaign.result =
                    Ok { s with Campaign.yield_lower = s.Campaign.yield_lower +. 1e-9 };
                }
            | Error _ -> r)
          direct.Campaign.rows;
    }
  in
  Alcotest.(check bool) "yield drift across routes fails" true
    (Campaign.diff_failed
       (Campaign.diff ~old_label:"coded" ~new_label:"direct" coded drifted))

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
  rejected "unreachable truncation point" { g with Campaign.lambdas = [ 10.0; 1e9 ] };
  rejected "zero alpha" { g with Campaign.alpha = 0.0 };
  rejected "nan alpha" { g with Campaign.alpha = nan };
  rejected "zero epsilon" { g with Campaign.epsilons = [ 0.0 ] };
  rejected "epsilon one" { g with Campaign.epsilons = [ 1e-3; 1.0 ] };
  rejected "nan epsilon" { g with Campaign.epsilons = [ nan ] };
  rejected "node limit 0" { g with Campaign.node_limit = 0 };
  rejected "par_domains 0" { g with Campaign.par_domains = 0 };
  rejected "zero cpu limit" { g with Campaign.cpu_limit = Some 0.0 };
  rejected "negative cpu limit" { g with Campaign.cpu_limit = Some (-1.0) };
  rejected "unknown benchmark" { g with Campaign.benchmarks = [ "MS2"; "XX" ] };
  rejected "empty axis" { g with Campaign.mv_orders = [] };
  rejected "heuristic bits beside another mv order"
    { g with Campaign.mv_orders = [ Scheme.Heur H.Weight; Scheme.Wv ];
             bit_order = Scheme.Heur_bits H.Weight }

(* A coded row's ROBDD peak and size. *)
let robdd (s : Campaign.success) =
  match s.Campaign.build with
  | Campaign.Coded { robdd_peak; robdd_size } -> (robdd_peak, robdd_size)
  | Campaign.Direct _ -> Alcotest.fail "a direct-route row has no ROBDD"

(* The one grid runner is deterministic: the same grid on one domain and
   on three gives equal rows field by field, floats bit for bit, budget
   failures included. Only the timing field [cpu_s] may differ. *)
let test_run_domains_deterministic () =
  let grid =
    {
      (tiny_grid "det") with
      Campaign.benchmarks = [ "MS2"; "ESEN4x1"; "ESEN4x2" ];
      mv_orders =
        [ Scheme.Heur H.Weight; Scheme.Wv; Scheme.Wvr; Scheme.Heur H.Topology ];
      node_limit = 50_000;
    }
  in
  let run domains =
    match Campaign.run ~route:P.Coded ~domains grid with
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
          Alcotest.(check (pair int int)) (label ^ ": robdd peak and size")
            (robdd x) (robdd y);
          Alcotest.(check int) (label ^ ": romdd_size") x.Campaign.romdd_size
            y.Campaign.romdd_size;
          Alcotest.(check (option string)) (label ^ ": shared_with")
            x.Campaign.shared_with y.Campaign.shared_with
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
(* Shared builds                                                       *)
(* ------------------------------------------------------------------ *)

(* At ml bits, t resolves to wv's order and w to wvr's, and M is 6 at
   both lambdas: each benchmark's eight points make two builds. *)
let sharing_grid =
  {
    (tiny_grid "share") with
    Campaign.benchmarks = [ "MS2"; "ESEN4x1" ];
    lambdas = [ 8.5; 9.5 ];
    mv_orders = [ Scheme.Wv; Scheme.Wvr; Scheme.Heur H.Topology; Scheme.Heur H.Weight ];
    node_limit = P.default_config.P.node_limit;
  }

(* What the point would give on its own build. *)
let own_build grid (p : Campaign.point) =
  let instance = S.by_name p.Campaign.source in
  let lethal =
    Model.to_lethal
      (Model.create
         (D.negative_binomial ~mean:p.Campaign.lambda ~alpha:grid.Campaign.alpha)
         instance.S.affect)
  in
  let config =
    P.Config.make ~epsilon:p.Campaign.epsilon ~mv_order:p.Campaign.mv
      ~bit_order:grid.Campaign.bit_order ~node_limit:grid.Campaign.node_limit
      ?cpu_limit:grid.Campaign.cpu_limit ()
  in
  P.run_lethal ~config instance.S.circuit lethal

(* [Pipeline.build_keys] on grid-small's shape (three benchmarks, two λ,
   two ε, three mv orders), one circuit per benchmark as [Campaign.run]
   passes them, against one [Pipeline.build_key] per point on a circuit
   of its own. *)
let test_build_keys_per_point () =
  let grid =
    {
      (tiny_grid "keys") with
      Campaign.benchmarks = [ "MS2"; "ESEN4x1"; "ESEN4x2" ];
      lambdas = [ 5.9; 8.6 ];
      epsilons = [ 1e-3; 1e-2 ];
      mv_orders = [ Scheme.Wv; Scheme.Wvr; Scheme.Heur H.Weight ];
    }
  in
  let instances = List.map (fun b -> (b, S.by_name b)) grid.Campaign.benchmarks in
  let job (instance : S.instance) (p : Campaign.point) =
    ( P.Config.make ~epsilon:p.Campaign.epsilon ~mv_order:p.Campaign.mv
        ~bit_order:grid.Campaign.bit_order (),
      instance.S.circuit,
      Model.to_lethal
        (Model.create
           (D.negative_binomial ~mean:p.Campaign.lambda ~alpha:grid.Campaign.alpha)
           instance.S.affect) )
  in
  let points = Array.of_list (Campaign.points grid) in
  Alcotest.(check int) "36 points" 36 (Array.length points);
  let keys =
    P.build_keys
      (Array.map (fun p -> job (List.assoc p.Campaign.source instances) p) points)
  in
  Array.iteri
    (fun i (p : Campaign.point) ->
      let config, circuit, lethal = job (S.by_name p.Campaign.source) p in
      Alcotest.(check bool) (Campaign.point_label p) true
        (keys.(i) = P.build_key config circuit lethal))
    points

let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let counter name = Obs.counter_value (Obs.counter name)

(* Progress runs on the worker domains, so it only counts; the checks
   run after the batch. *)
let run_counting_progress ?route ?wall_budget grid =
  let progressed = Atomic.make 0 and wrong_total = Atomic.make 0 in
  let total_points = List.length (Campaign.points grid) in
  let c =
    match
      Campaign.run ?route ~domains:2 ?wall_budget
        ~progress:(fun ~completed:_ ~total ~label:_ ->
          if total <> total_points then Atomic.incr wrong_total;
          Atomic.incr progressed)
        grid
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "campaign run failed: %s" msg
  in
  Alcotest.(check int) "progress once per point" total_points
    (Atomic.get progressed);
  Alcotest.(check int) "progress total is the point count" 0
    (Atomic.get wrong_total);
  c

let test_shared_equal_independent () =
  with_obs @@ fun () ->
  let grid = sharing_grid in
  let jobs0 = counter "batch.jobs" in
  let c = run_counting_progress ~route:P.Coded grid in
  Alcotest.(check int) "16 points" 16 (List.length c.Campaign.rows);
  Alcotest.(check int) "batch.jobs counts builds" 4 (counter "batch.jobs" - jobs0);
  let bits f = Int64.bits_of_float f in
  let built =
    List.filter_map
      (fun (r : Campaign.row) ->
        match r.Campaign.result with
        | Ok { Campaign.shared_with = None; _ } ->
            Some (Campaign.point_label r.Campaign.point, r.Campaign.point.Campaign.source)
        | _ -> None)
      c.Campaign.rows
  in
  Alcotest.(check int) "four built rows" 4 (List.length built);
  let shared = ref 0 in
  List.iter
    (fun (r : Campaign.row) ->
      let p = r.Campaign.point in
      let label = Campaign.point_label p in
      match (r.Campaign.result, own_build grid p) with
      | Ok x, Ok y ->
          Alcotest.(check int) (label ^ ": m") y.P.m x.Campaign.m;
          Alcotest.(check int64) (label ^ ": yield_lower bits")
            (bits y.P.yield_lower) (bits x.Campaign.yield_lower);
          Alcotest.(check int64) (label ^ ": yield_upper bits")
            (bits y.P.yield_upper) (bits x.Campaign.yield_upper);
          Alcotest.(check (pair int int)) (label ^ ": robdd peak and size")
            (y.P.robdd_peak, y.P.robdd_size) (robdd x);
          Alcotest.(check int) (label ^ ": romdd_size") y.P.romdd_size
            x.Campaign.romdd_size;
          Option.iter
            (fun first ->
              incr shared;
              Alcotest.(check (option string))
                (label ^ ": shares a built row of its benchmark")
                (Some p.Campaign.source) (List.assoc_opt first built))
            x.Campaign.shared_with
      | _ -> Alcotest.failf "%s: not ok" label)
    c.Campaign.rows;
  Alcotest.(check int) "twelve shared rows" 12 !shared;
  let _, drift = Campaign.sequential_rerun c in
  Alcotest.(check (float 0.0)) "sequential_rerun: no drift" 0.0
    drift.Campaign.max_drift;
  Alcotest.(check int) "sequential_rerun: no status mismatch" 0
    drift.Campaign.status_mismatches

(* The default route: each row's yields are bit for bit the coded
   route's own build, the rows carry the MDD nodes their APPLY created
   instead of ROBDD columns, a shared two-domain run equals its unshared
   one-domain rerun, and the document round-trips the route. *)
let test_direct_campaign () =
  let grid = sharing_grid in
  let c = run_counting_progress grid in
  Alcotest.(check bool) "direct by default" true (c.Campaign.route = P.Direct);
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun (r : Campaign.row) ->
      let p = r.Campaign.point in
      let label = Campaign.point_label p in
      let fields = List.map fst (Campaign.row_fields r) in
      Alcotest.(check bool) (label ^ ": no ROBDD columns") false
        (List.mem "robdd_peak" fields || List.mem "robdd_size" fields);
      match (r.Campaign.result, own_build grid p) with
      | Ok x, Ok y ->
          Alcotest.(check int) (label ^ ": m") y.P.m x.Campaign.m;
          Alcotest.(check int64) (label ^ ": yield_lower bits")
            (bits y.P.yield_lower) (bits x.Campaign.yield_lower);
          Alcotest.(check int64) (label ^ ": yield_upper bits")
            (bits y.P.yield_upper) (bits x.Campaign.yield_upper);
          Alcotest.(check int) (label ^ ": romdd_size") y.P.romdd_size
            x.Campaign.romdd_size;
          (match x.Campaign.build with
          | Campaign.Direct { peak_nodes } ->
              Alcotest.(check bool) (label ^ ": peak_nodes covers the ROMDD") true
                (peak_nodes >= x.Campaign.romdd_size)
          | Campaign.Coded _ -> Alcotest.failf "%s: coded build on the direct route" label)
      | _ -> Alcotest.failf "%s: not ok" label)
    c.Campaign.rows;
  let seq, drift = Campaign.sequential_rerun c in
  Alcotest.(check bool) "rerun on the same route" true (seq.Campaign.route = P.Direct);
  Alcotest.(check (float 0.0)) "sequential_rerun: no drift" 0.0 drift.Campaign.max_drift;
  Alcotest.(check int) "sequential_rerun: no status mismatch" 0
    drift.Campaign.status_mismatches;
  let text = Json.to_string (Campaign.to_json c) in
  match Campaign.of_string text with
  | Ok c' ->
      Alcotest.(check bool) "document round-trips" true (c = c');
      Alcotest.(check (option string)) "document names the route" (Some "direct")
        (match Json.member "route" (Json.of_string text) with
        | Some (Json.String r) -> Some r
        | _ -> None)
  | Error msg -> Alcotest.failf "direct document does not parse: %s" msg

(* A group's budget failure is every member's row, the one its own build
   would give; a spent wall budget cancels every member. *)
let test_shared_failures () =
  with_obs @@ fun () ->
  let grid = { sharing_grid with Campaign.benchmarks = [ "ESEN4x1" ]; node_limit = 5_000 } in
  let failed0 = counter "batch.jobs_failed" in
  let c = run_counting_progress ~route:P.Coded grid in
  List.iter
    (fun (r : Campaign.row) ->
      let label = Campaign.point_label r.Campaign.point in
      match (r.Campaign.result, own_build grid r.Campaign.point) with
      | Error (Campaign.Node_budget_hit p), Error (P.Node_budget { peak; _ }) ->
          Alcotest.(check int) (label ^ ": peak at failure") peak p
      | ra, _ ->
          Alcotest.failf "%s: %s, expected node-budget on both" label
            (Campaign.status_name ra))
    c.Campaign.rows;
  Alcotest.(check int) "batch.jobs_failed counts points" 8
    (counter "batch.jobs_failed" - failed0);
  let cancelled0 = counter "batch.jobs_cancelled" in
  let c = run_counting_progress ~wall_budget:0.0 sharing_grid in
  List.iter
    (fun (r : Campaign.row) ->
      Alcotest.(check string)
        (Campaign.point_label r.Campaign.point)
        "cancelled"
        (Campaign.status_name r.Campaign.result))
    c.Campaign.rows;
  Alcotest.(check int) "batch.jobs_cancelled counts points" 16
    (counter "batch.jobs_cancelled" - cancelled0)

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

let gen_result route =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun (m, (yl, yu), (peak, size), (cpu, shared_with)) ->
              Ok
                {
                  Campaign.m;
                  yield_lower = yl;
                  yield_upper = yu;
                  build =
                    (match route with
                    | P.Coded -> Campaign.Coded { robdd_peak = peak; robdd_size = size }
                    | P.Direct -> Campaign.Direct { peak_nodes = peak });
                  romdd_size = size + 1;
                  cpu_s = cpu;
                  shared_with =
                    Option.map Campaign.point_label shared_with;
                })
            (quad (int_range 0 20) (pair gen_float gen_float)
               (pair (int_range 0 1000000) (int_range 0 1000000))
               (pair gen_float (opt gen_point))) );
        (1, map (fun n -> Error (Campaign.Node_budget_hit n)) (int_range 0 1000));
        (1, map (fun s -> Error (Campaign.Cpu_budget_hit s)) gen_float);
        (1, return (Error Campaign.Cancelled));
      ])

let gen_campaign =
  QCheck.Gen.(
    oneofl [ P.Coded; P.Direct ] >>= fun route ->
    map
      (fun ((name, benchmarks, lambdas, epsilons), (mvs, bit, rows), extra) ->
        let created_s, domains, wall_s, node_limit, cpu_limit, reorder, par =
          extra
        in
        {
          Campaign.route;
          grid =
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
                  gen_point (gen_result route))))
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
(* Golden documents                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_campaign name =
  let text = read_file (Filename.concat "golden" name) in
  match Campaign.of_string text with
  | Ok c ->
      (* Decoding and re-encoding reproduces the document field for field:
         a field renamed, retyped or dropped on either side fails here. *)
      Alcotest.(check string) (name ^ ": re-encodes")
        (Json.to_string (Json.of_string text))
        (Json.to_string (Campaign.to_json c));
      c
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* A row without its timing: what two runs of the same point share. *)
let result_fields (r : Campaign.row) =
  Json.to_string
    (Json.Obj
       (List.filter
          (fun (k, _) -> k <> "cpu_s" && k <> "shared_with")
          (Campaign.row_fields r)))

(* golden/campaign-parent.json was written before rows could share a
   build, and golden/campaign-shared.json after, both by
   [socyield sweep -b MS2 --lambdas 8.5,9.5 --mv-orders wvr,w --domains 1
   --output json]. The old document still loads; both carry the same
   results, and a fresh run of the grid reproduces them, sharing
   included. *)
let test_golden_campaign () =
  let old_doc = golden_campaign "campaign-parent.json" in
  let doc = golden_campaign "campaign-shared.json" in
  List.iter
    (fun (r : Campaign.row) ->
      match r.Campaign.result with
      | Ok s ->
          Alcotest.(check (option string)) "no shared_with before sharing" None
            s.Campaign.shared_with
      | Error _ -> Alcotest.fail "golden row failed")
    old_doc.Campaign.rows;
  let shared_with (c : Campaign.t) =
    List.map
      (fun (r : Campaign.row) ->
        match r.Campaign.result with
        | Ok s -> s.Campaign.shared_with
        | Error _ -> None)
      c.Campaign.rows
  in
  let first = Some "MS2 l=8.5 e=0.001 wvr" in
  Alcotest.(check (list (option string))) "three rows share the first build"
    [ None; first; first; first ] (shared_with doc);
  Alcotest.(check (list string)) "same results before and after sharing"
    (List.map result_fields old_doc.Campaign.rows)
    (List.map result_fields doc.Campaign.rows);
  match Campaign.run ~route:P.Coded ~domains:1 doc.Campaign.grid with
  | Error msg -> Alcotest.failf "golden grid: %s" msg
  | Ok fresh ->
      Alcotest.(check (list string)) "a fresh run gives the golden results"
        (List.map result_fields doc.Campaign.rows)
        (List.map result_fields fresh.Campaign.rows);
      Alcotest.(check (list (option string))) "and shares the same way"
        (shared_with doc) (shared_with fresh)

(* golden/bench.json: [bench/main.exe --quick --json=bench.json par]. *)
let test_golden_bench () =
  let text = read_file (Filename.concat "golden" "bench.json") in
  match Bench.of_string text with
  | Error msg -> Alcotest.failf "bench.json: %s" msg
  | Ok doc ->
      Alcotest.(check string) "re-encodes"
        (Json.to_string (Json.of_string text))
        (Json.to_string (Bench.to_json doc));
      (match Bench.find doc ~section:"par" ~row:"MS4, l'=1 build+convert" with
      | Some r ->
          Alcotest.(check (option (float 0.0))) "gated drift field" (Some 0.0)
            (Bench.number "par_yield_drift" r)
      | None -> Alcotest.fail "par record missing");
      Alcotest.(check int) "one record" 1 (List.length doc.Bench.records)

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
          Alcotest.test_case "diff across routes" `Quick test_campaign_diff_routes;
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
          Alcotest.test_case "shared points equal independent builds" `Quick
            test_shared_equal_independent;
          Alcotest.test_case "group keys equal per-point build keys" `Quick
            test_build_keys_per_point;
          Alcotest.test_case "shared failures and cancellation" `Quick
            test_shared_failures;
          Alcotest.test_case "direct route by default" `Quick test_direct_campaign;
          QCheck_alcotest.to_alcotest prop_campaign_codec_round_trip;
        ] );
      ( "bench-doc",
        [
          Alcotest.test_case "round trip" `Quick test_bench_codec_round_trip;
          Alcotest.test_case "rejects malformed" `Quick test_bench_codec_rejects;
        ] );
      ( "golden",
        [
          Alcotest.test_case "socyield-campaign/1 documents" `Quick
            test_golden_campaign;
          Alcotest.test_case "socyield-bench/1 document" `Quick test_golden_bench;
        ] );
    ]
