(* grid-small: a campaign grid of small problems on 2 domains.

   MS2, ESEN4x1 and ESEN4x2 × two seeded λ × two ε × three mv orders: 36
   jobs of tens of milliseconds each, many sharing a circuit and often M.
   Here per-job set-up, batch scheduling and the cheap front stages weigh
   heavily and the apply core weighs little. *)

module C = Socy_campaign.Campaign
module P = Socy_core.Pipeline
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module Model = Socy_defects.Model
module D = Socy_defects.Distribution
module Pool = Socy_batch.Pool
module Prng = Socy_util.Prng
open Measure

let domains = 2
(* What the workload starts: the main domain, which works in the batch
   too, plus the [domains - 1] workers [Pool.parallel_map] spawns. *)
let usage = [ ("domains", 1 + (domains - 1)); ("systhreads", 0); ("connections", 0) ]

(* Seeded λ values, one in [5.5, 6.5) and one in [8, 9.25): every seed
   keeps the same truncation points (M = 5/3 and 6/4 at ε = 1e-3/1e-2),
   so seeds differ in their inputs but not in their amount of work. *)
let grid seed =
  let rng = Prng.create (Int64.of_int seed) in
  let l1 = 5.5 +. Prng.float rng in
  let l2 = 8.0 +. (1.25 *. Prng.float rng) in
  {
    C.name = "grid-small";
    benchmarks = [ "MS2"; "ESEN4x1"; "ESEN4x2" ];
    lambdas = [ l1; l2 ];
    epsilons = [ 1e-3; 1e-2 ];
    mv_orders = [ Scheme.Wv; Scheme.Wvr; Scheme.Heur Socy_order.Heuristics.Weight ];
    bit_order = Scheme.Ml;
    alpha = S.alpha;
    node_limit = P.default_config.P.node_limit;
    cpu_limit = None;
    reorder = false;
    par_domains = 1;
  }

(* What one grid point evaluates, for the traced run and the off-clock
   sequential re-run. *)
let job grid (p : C.point) =
  let instance = S.by_name p.C.source in
  let model = Model.create (D.negative_binomial ~mean:p.C.lambda ~alpha:grid.C.alpha) instance.S.affect in
  let config =
    P.Config.make ~epsilon:p.C.epsilon ~mv_order:p.C.mv ~bit_order:grid.C.bit_order
      ~node_limit:grid.C.node_limit ()
  in
  (instance.S.circuit, model, config)

let check_point tally (p : C.point) ~yield_lower ~yield_upper =
  check tally
    (yield_lower <= yield_upper && yield_upper <= yield_lower +. p.C.epsilon +. 1e-12)
    (Printf.sprintf "%s: Y_M = %h, upper = %h breaks Y_M <= upper <= Y_M + eps" (C.point_label p)
       yield_lower yield_upper)

let run_campaign grid =
  match C.run ~domains grid with Ok c -> c | Error e -> failwith ("grid-small: " ^ e)

let setup seed () =
  let g = grid seed in
  (match C.validate g with Ok () -> () | Error e -> failwith e);
  ignore (run_campaign { g with C.benchmarks = [ "MS2" ]; lambdas = [ 10.0 ]; epsilons = [ 1e-3 ]; mv_orders = [ Scheme.Wvr ] });
  g

(* Off the clock: a seeded sample of points re-run sequentially must give
   the campaign's yields bit for bit. *)
let check_sample tally ~seed grid (rows : C.row list) =
  let rng = Prng.create (Int64.of_int (seed + 7919)) in
  let rows = Array.of_list rows in
  for _ = 1 to 4 do
    let row = rows.(Prng.int rng (Array.length rows)) in
    let circuit, model, config = job grid row.C.point in
    match (row.C.result, P.run ~config circuit model) with
    | Ok s, Ok r ->
        verify tally
          (Int64.equal (Int64.bits_of_float s.C.yield_lower) (Int64.bits_of_float r.P.yield_lower))
          (Printf.sprintf "%s: campaign %h, sequential %h" (C.point_label row.C.point) s.C.yield_lower
             r.P.yield_lower)
    | _ -> verify tally false (C.point_label row.C.point ^ ": failed")
  done

let untraced ~seed ~seconds tally =
  let grid, first_setup = timed_setup (setup seed) in
  (* A job's latency is the time since its worker last finished a job (or
     since the batch started): the wait for work plus the evaluation. *)
  let batch_t0 = ref 0.0 in
  let last = Domain.DLS.new_key (fun () -> ref neg_infinity) in
  let lock = Mutex.create () and samples = ref [] in
  let progress ~completed:_ ~total:_ ~label =
    let t = now () in
    let l = Domain.DLS.get last in
    let dt = t -. Float.max !l !batch_t0 in
    l := t;
    Mutex.lock lock;
    samples := (label, dt *. 1e3) :: !samples;
    Mutex.unlock lock
  in
  let runs = ref [] in
  let passes =
    run_passes ~seconds (fun _ ->
        batch_t0 := now ();
        match C.run ~domains ~progress grid with
        | Ok c -> runs := c :: !runs
        | Error e -> check tally false e)
  in
  List.iter
    (fun (c : C.t) ->
      List.iter
        (fun (row : C.row) ->
          match row.C.result with
          | Ok s -> check_point tally row.C.point ~yield_lower:s.C.yield_lower ~yield_upper:s.C.yield_upper
          | Error _ -> check tally false (C.point_label row.C.point ^ ": " ^ C.status_name row.C.result))
        c.C.rows)
    !runs;
  (match !runs with c :: _ -> check_sample tally ~seed grid c.C.rows | [] -> ());
  let jobs = List.length (C.points grid) in
  {
    Report.setup = first_setup :: more_setups 8 ~setup:(setup seed) ~teardown:ignore;
    rates = List.map (fun p -> (jobs, p.seconds)) passes;
    rss_peaks = List.map (fun p -> p.rss_peak) passes;
    samples = List.length !samples;
    mean_ms = mean (List.map snd !samples);
    latencies = per_key_medians !samples;
    hits = None;
    misses = None;
  }

let traced ~seed ~seconds tally =
  let grid = setup seed () in
  let points = Array.of_list (C.points grid) in
  let jobs = Array.map (fun p -> (p, job grid p)) points in
  let lock = Mutex.create () and results = ref [] and busy = ref 0.0 and id = Atomic.make 0 in
  let eval (p, (circuit, model, config)) =
    let eid = Atomic.fetch_and_add id 1 + 1 in
    let t0 = now () in
    let r = Spans.with_eval eid (fun () -> Layers.eval ~config circuit model) in
    let dt = now () -. t0 in
    Mutex.lock lock;
    results := (p, r) :: !results;
    busy := !busy +. dt;
    Mutex.unlock lock
  in
  let gc = ref gc_zero in
  Spans.recording := true;
  let passes =
    run_passes ~seconds (fun _ ->
        Array.iter
          (function Pool.Done () -> () | _ -> check tally false "grid-small: job failed")
          (gc_window gc (fun () -> Pool.parallel_map ~domains eval jobs)))
  in
  Spans.recording := false;
  List.iter
    (fun (p, r) -> check_point tally p ~yield_lower:r.Layers.yield_lower ~yield_upper:r.Layers.yield_upper)
    !results;
  let n = List.length !results in
  let t0 = now () in
  let campaign = run_campaign grid in
  let campaign_ms = (now () -. t0) *. 1e3 in
  check_sample tally ~seed grid campaign.C.rows;
  let wall = List.fold_left (fun acc p -> acc +. p.seconds) 0.0 passes in
  let capacity = float_of_int domains *. wall in
  let idle_ms = (capacity -. !busy) *. 1e3 /. float_of_int (max 1 n) in
  {
    Report.evals = n;
    baseline = None;
    throughput = median_rate (List.map (fun p -> (Array.length jobs, p.seconds)) passes);
    gc = !gc;
    extra =
      Layers.counts (List.map snd !results)
      @ [
          ("batch.busy_ratio", !busy /. capacity);
          ("batch.idle_ms", idle_ms);
          ("campaign.run_ms", campaign_ms);
        ];
    other_layers_ms = idle_ms;
  }
