(* Tests for the multicore batch engine: the generic domain pool
   (ordering, failure isolation, cancellation) and pipeline batches on it
   — in particular the determinism contract that [parallel_map
   ~domains:1] (a plain sequential loop) and a genuinely parallel run
   produce bit-identical report lists. *)

module P = Socy_core.Pipeline
module Pool = Socy_batch.Pool
module Campaign = Socy_campaign.Campaign
module S = Socy_benchmarks.Suite
module Parse = Socy_logic.Parse
module D = Socy_defects.Distribution
module Model = Socy_defects.Model
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Obs = Socy_obs.Obs

(* ------------------------------------------------------------------ *)
(* Generic pool                                                        *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let xs = Array.init 100 Fun.id in
  let out = Pool.parallel_map ~domains:4 (fun i -> i * i) xs in
  Alcotest.(check int) "length" 100 (Array.length out);
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done y -> Alcotest.(check int) "slot i holds f i" (i * i) y
      | _ -> Alcotest.fail "unexpected non-Done outcome")
    out

let test_pool_failure_isolation () =
  let xs = Array.init 20 Fun.id in
  let out =
    Pool.parallel_map ~domains:4
      (fun i -> if i = 5 then failwith "boom" else i)
      xs
  in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 5, Pool.Failed (Failure msg) -> Alcotest.(check string) "message" "boom" msg
      | 5, _ -> Alcotest.fail "job 5 should have Failed"
      | _, Pool.Done y -> Alcotest.(check int) "survivor" i y
      | _, _ -> Alcotest.fail "survivor should be Done")
    out

let test_pool_cancellation () =
  (* A budget already spent before the first job: everything cancels. *)
  let ran = Atomic.make 0 in
  let out =
    Pool.parallel_map ~domains:4 ~wall_budget:(-1.0)
      (fun i ->
        Atomic.incr ran;
        i)
      (Array.init 50 Fun.id)
  in
  Array.iter
    (function
      | Pool.Cancelled -> ()
      | _ -> Alcotest.fail "expected every job cancelled")
    out;
  Alcotest.(check int) "no job body ran" 0 (Atomic.get ran)

let test_pool_empty_and_single () =
  Alcotest.(check int) "empty" 0
    (Array.length (Pool.parallel_map ~domains:4 Fun.id [||]));
  (match Pool.parallel_map ~domains:8 (fun x -> x + 1) [| 41 |] with
  | [| Pool.Done 42 |] -> ()
  | _ -> Alcotest.fail "single job");
  (* more requested domains than jobs must not deadlock or spawn idly *)
  match Pool.parallel_map ~domains:64 (fun x -> -x) [| 1; 2 |] with
  | [| Pool.Done (-1); Pool.Done (-2) |] -> ()
  | _ -> Alcotest.fail "two jobs"

(* Values a worker allocates and the caller keeps must not pin a heap
   per call: the helpers are the same domains from call to call. Each
   call keeps one worker-allocated block per job, and the domains that
   ran the jobs are counted: a domain started and joined per call would
   show up as a new domain id every call. (On OCaml 5.1, [heap_words]
   does not tell the two apart: what a dead domain pins shows in the
   resident set, not in the major heap's size.) *)
let test_pool_workers_kept () =
  let kept = ref [] and ids = ref [] and lock = Mutex.create () in
  let call () =
    let out =
      Pool.parallel_map ~domains:2
        ~on_done:(fun _ _ ->
          Mutex.lock lock;
          let id = (Domain.self () :> int) in
          if not (List.mem id !ids) then ids := id :: !ids;
          Mutex.unlock lock)
        (fun i ->
          (* long enough for both workers to claim jobs *)
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 1e-4 do () done;
          Array.make 3 i)
        (Array.init 8 Fun.id)
    in
    kept := out :: !kept
  in
  for _ = 1 to 20 do call () done;
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  for _ = 1 to 200 do call () done;
  Gc.full_major ();
  let after = (Gc.quick_stat ()).Gc.heap_words in
  Alcotest.(check int) "every call kept" 220 (List.length !kept);
  (* The caller and the helper domains this suite's calls have started:
     the widest call so far asked for three helpers. *)
  Alcotest.(check bool)
    (Printf.sprintf "220 calls ran on %d domains, not one more per call"
       (List.length !ids))
    true
    (List.length !ids <= 8);
  Alcotest.(check bool)
    (Printf.sprintf "heap_words %d -> %d stays within 256k words" before after)
    true
    (after - before < 262_144)

(* A job that runs a batch of its own: the inner call's helpers may wait
   behind the outer call's, and the inner caller drains alone if need
   be. *)
let test_pool_nested () =
  let out =
    Pool.parallel_map ~domains:2
      (fun i ->
        let inner = Pool.parallel_map ~domains:2 (fun j -> (10 * i) + j) (Array.init 5 Fun.id) in
        Array.fold_left (fun acc -> function Pool.Done y -> acc + y | _ -> acc) 0 inner)
      (Array.init 6 Fun.id)
  in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done y -> Alcotest.(check int) "inner sum" ((50 * i) + 10) y
      | _ -> Alcotest.fail "nested job did not complete")
    out

(* An [on_done] that raises ends its worker's claims, and the caller gets
   the exception once every worker has stopped, on one domain or on two,
   also when no worker is left to claim the other jobs. *)
let test_pool_on_done_raises () =
  List.iter
    (fun domains ->
      match
        Pool.parallel_map ~domains
          ~on_done:(fun _ _ -> failwith "on_done")
          Fun.id (Array.init 8 Fun.id)
      with
      | _ -> Alcotest.failf "domains %d: the exception was lost" domains
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "domains %d: re-raised" domains)
            "on_done" msg)
    [ 1; 2 ]

(* Two systhreads, each running batches on the shared helpers. *)
let test_pool_concurrent_callers () =
  let sums = Array.make 2 0 in
  let caller t () =
    for _ = 1 to 20 do
      let out = Pool.parallel_map ~domains:2 (fun i -> i + t) (Array.init 16 Fun.id) in
      sums.(t) <-
        sums.(t) + Array.fold_left (fun acc -> function Pool.Done y -> acc + y | _ -> acc) 0 out
    done
  in
  let threads = List.init 2 (fun t -> Thread.create (caller t) ()) in
  List.iter Thread.join threads;
  Alcotest.(check (array int)) "both callers complete every batch"
    [| 20 * 120; 20 * (120 + 16) |] sums

(* ------------------------------------------------------------------ *)
(* Pipeline batches                                                    *)
(* ------------------------------------------------------------------ *)

type job = {
  label : string;
  circuit : Socy_logic.Circuit.t;
  lethal : Model.lethal;
  config : P.config;
}

let job ~config ~label circuit lethal = { label; circuit; lethal; config }

(* A batch of pipeline jobs: one [run_lethal] per job on the pool, outcomes
   in submission order. *)
let pipeline_batch ?wall_budget ~domains jobs =
  Array.to_list
    (Pool.parallel_map ~domains ?wall_budget
       (fun j -> P.run_lethal ~config:j.config j.circuit j.lethal)
       (Array.of_list jobs))

(* The same batch when every job is expected to run. *)
let results ~domains jobs =
  List.map2
    (fun j -> function
      | Pool.Done r -> r
      | Pool.Failed e -> Alcotest.failf "%s raised %s" j.label (Printexc.to_string e)
      | Pool.Cancelled -> Alcotest.failf "%s cancelled" j.label)
    jobs (pipeline_batch ~domains jobs)

(* A mixed MS/ESEN job list exercising several orderings and epsilons,
   plus one job whose tiny node budget blows up mid-batch. *)
let mixed_jobs () =
  let rows = S.table_rows () in
  let row label = List.find (fun r -> S.row_label r = label) rows in
  let ms2_1 = row "MS2, l'=1" and ms2_2 = row "MS2, l'=2" in
  let esen = row "ESEN4x1, l'=1" in
  let ms4 = row "MS4, l'=1" in
  let fig2 = Parse.fault_tree ~name:"fig2" "x0 & x1 | x2" in
  let fig2_lethal =
    {
      Model.count = D.of_array [| 0.4; 0.3; 0.2; 0.1 |];
      component = Array.make 3 (1.0 /. 3.0);
      p_lethal = 0.1;
    }
  in
  let bench r config label = job ~config ~label r.S.instance.S.circuit (S.lethal r) in
  [
    bench ms2_1 (P.Config.make ()) "ms2-default";
    bench ms2_1 (P.Config.make ~epsilon:1e-6 ~mv_order:Scheme.Vw ()) "ms2-vw";
    job ~config:(P.Config.make ~epsilon:0.11 ~mv_order:Scheme.Vw ()) ~label:"fig2"
      fig2 fig2_lethal;
    (* deliberately exhausts a tiny node budget mid-batch *)
    bench ms4 (P.Config.make ~node_limit:5_000 ()) "ms4-blowup";
    bench esen (P.Config.make ~bit_order:Scheme.Lm ()) "esen-lm";
    bench ms2_2 (P.Config.make ~epsilon:1e-4 ()) "ms2-tight";
  ]

let check_same_result label (a : (P.report, P.failure) result)
    (b : (P.report, P.failure) result) : unit =
  match (a, b) with
  | Ok ra, Ok rb ->
      (* bit-identical floats: compare with =, not a tolerance *)
      Alcotest.(check bool)
        (label ^ ": yield_lower bit-identical")
        true
        (ra.P.yield_lower = rb.P.yield_lower);
      Alcotest.(check bool)
        (label ^ ": yield_upper bit-identical")
        true
        (ra.P.yield_upper = rb.P.yield_upper);
      Alcotest.(check bool)
        (label ^ ": p_unusable bit-identical")
        true
        (ra.P.p_unusable = rb.P.p_unusable);
      Alcotest.(check int) (label ^ ": M") ra.P.m rb.P.m;
      Alcotest.(check int) (label ^ ": robdd size") ra.P.robdd_size rb.P.robdd_size;
      Alcotest.(check int) (label ^ ": robdd peak") ra.P.robdd_peak rb.P.robdd_peak;
      Alcotest.(check int) (label ^ ": romdd size") ra.P.romdd_size rb.P.romdd_size
  | Error fa, Error fb -> (
      match (fa, fb) with
      | P.Node_budget a', P.Node_budget b' ->
          Alcotest.(check string) (label ^ ": stage") a'.stage b'.stage;
          Alcotest.(check int) (label ^ ": peak") a'.peak b'.peak
      | P.Cpu_budget _, P.Cpu_budget _ -> ()
      | _ -> Alcotest.fail (label ^ ": different failure constructors"))
  | _ -> Alcotest.fail (label ^ ": Ok vs Error mismatch")

let test_batch_matches_sequential () =
  let jobs = mixed_jobs () in
  let seq = results ~domains:1 jobs in
  let par = results ~domains:4 jobs in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun job (s, p) -> check_same_result job.label s p)
    jobs
    (List.map2 (fun s p -> (s, p)) seq par)

(* Property form: any submission order and any domain count give the
   sequential answers, job by job. *)
let prop_batch_deterministic =
  QCheck.Test.make ~name:"run_batch ~domains:d permutation-stable" ~count:4
    QCheck.(pair (int_range 2 6) (int_range 0 1000))
    (fun (domains, salt) ->
      let jobs = mixed_jobs () in
      (* a salted shuffle of the same job list *)
      let arr = Array.of_list jobs in
      let n = Array.length arr in
      for i = n - 1 downto 1 do
        let j = (salt * 31 + i * 17) mod (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let shuffled = Array.to_list arr in
      let seq = results ~domains:1 shuffled in
      let par = results ~domains shuffled in
      List.iter2
        (fun job (s, p) -> check_same_result job.label s p)
        shuffled
        (List.map2 (fun s p -> (s, p)) seq par);
      true)

let test_batch_node_budget_isolated () =
  (* The blow-up job lands as Error Node_budget; its siblings all succeed. *)
  let jobs = mixed_jobs () in
  List.iter2
    (fun job result ->
      match (job.label, result) with
      | "ms4-blowup", Error (P.Node_budget { stage; peak }) ->
          Alcotest.(check string) "stage" "coded-robdd" stage;
          Alcotest.(check bool) "peak at least the budget" true (peak >= 5_000)
      | "ms4-blowup", _ -> Alcotest.fail "ms4-blowup should hit the node budget"
      | label, Ok _ -> ignore label
      | label, Error f ->
          Alcotest.failf "%s unexpectedly failed: %s" label (P.failure_to_string f))
    jobs (results ~domains:4 jobs)

let test_batch_wall_budget () =
  let jobs = mixed_jobs () in
  List.iter
    (function
      | Pool.Cancelled -> ()
      | _ -> Alcotest.fail "expected every job Cancelled")
    (pipeline_batch ~domains:2 ~wall_budget:(-1.0) jobs)

(* The outcome counters are the campaign's: a grid of four points, one of
   which (ESEN4x2 at epsilon 1e-3) exhausts its 50k node budget. *)
let test_batch_obs_aggregation () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let grid =
        {
          Campaign.name = "obs";
          benchmarks = [ "MS2"; "ESEN4x2" ];
          lambdas = [ 10.0 ];
          epsilons = [ 1e-3; 1e-2 ];
          mv_orders = [ Scheme.Heur H.Weight ];
          bit_order = Scheme.Ml;
          alpha = S.alpha;
          node_limit = 50_000;
          cpu_limit = None;
          reorder = false;
          par_domains = 1;
        }
      in
      let n = List.length (Campaign.points grid) in
      (match Campaign.run ~route:P.Coded ~domains:3 grid with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "campaign run failed: %s" msg);
      let snap = Obs.snapshot () in
      Alcotest.(check int) "batch.jobs counts submissions" n
        (List.assoc "batch.jobs" snap.Obs.counters);
      Alcotest.(check int) "one job failed" 1
        (List.assoc "batch.jobs_failed" snap.Obs.counters);
      Alcotest.(check int) "rest succeeded" (n - 1)
        (List.assoc "batch.jobs_ok" snap.Obs.counters);
      let g = List.assoc "batch.domains" snap.Obs.gauges in
      Alcotest.(check (float 0.0)) "domains gauge" 3.0 g.Obs.g_last;
      Alcotest.(check bool) "speedup gauge recorded" true
        (List.mem_assoc "batch.speedup" snap.Obs.gauges);
      (* per-worker spans: worker 0 is the submitting domain, under the
         batch span; spawned workers start their own span trees *)
      let spans = List.map fst snap.Obs.spans in
      Alcotest.(check bool) "worker-0 span traced" true
        (List.mem "batch/batch.worker-0" spans))

(* ------------------------------------------------------------------ *)
(* Config builder                                                      *)
(* ------------------------------------------------------------------ *)

let test_config_builder () =
  Alcotest.(check bool) "make () is the default" true
    (P.Config.make () = P.default_config);
  Alcotest.(check bool) "default alias" true (P.Config.default = P.default_config);
  let c =
    P.Config.(
      default |> with_epsilon 1e-6 |> with_node_limit 123
      |> with_mv_order Scheme.Vw |> with_bit_order Scheme.Lm
      |> with_gc_threshold 77 |> with_cache_bits 10
      |> with_cpu_limit (Some 2.5))
  in
  Alcotest.(check (float 0.0)) "epsilon" 1e-6 c.P.epsilon;
  Alcotest.(check int) "node_limit" 123 c.P.node_limit;
  Alcotest.(check bool) "mv" true (c.P.mv_order = Scheme.Vw);
  Alcotest.(check bool) "bits" true (c.P.bit_order = Scheme.Lm);
  Alcotest.(check int) "gc" 77 c.P.gc_threshold;
  Alcotest.(check int) "cache" 10 c.P.cache_bits;
  Alcotest.(check bool) "cpu" true (c.P.cpu_limit = Some 2.5);
  Alcotest.(check bool) "make = with_* chain" true
    (P.Config.make ~epsilon:1e-6 ~node_limit:123 ~mv_order:Scheme.Vw
       ~bit_order:Scheme.Lm ~gc_threshold:77 ~cache_bits:10 ~cpu_limit:2.5 ()
    = c);
  Alcotest.(check bool) "cpu budget clearable" true
    ((c |> P.Config.with_cpu_limit None).P.cpu_limit = None);
  (* Each out-of-range value is rejected by [make] and by its setter. *)
  let rejected what make set =
    List.iter
      (fun (via, f) ->
        match f () with
        | exception Invalid_argument _ -> ()
        | (_ : P.config) -> Alcotest.failf "%s: %s accepted" via what)
      [ ("make", make); ("with_*", fun () -> set P.Config.default) ]
  in
  List.iter
    (fun bits ->
      rejected
        (Printf.sprintf "cache_bits = %d" bits)
        (fun () -> P.Config.make ~cache_bits:bits ())
        (P.Config.with_cache_bits bits))
    [ -1; 0; 29; 63 ];
  List.iter
    (fun e ->
      rejected
        (Printf.sprintf "epsilon = %g" e)
        (fun () -> P.Config.make ~epsilon:e ())
        (P.Config.with_epsilon e))
    [ 0.0; 1.0; 2.0; -1e-3; nan ];
  List.iter
    (fun n ->
      rejected
        (Printf.sprintf "node_limit = %d" n)
        (fun () -> P.Config.make ~node_limit:n ())
        (P.Config.with_node_limit n))
    [ 0; -5 ];
  List.iter
    (fun s ->
      rejected
        (Printf.sprintf "cpu_limit = Some %g" s)
        (fun () -> P.Config.make ~cpu_limit:s ())
        (P.Config.with_cpu_limit (Some s)))
    [ 0.0; -1.0; nan; infinity ]

let () =
  Alcotest.run "socy_batch"
    [
      ( "pool",
        [
          Alcotest.test_case "submission-order results" `Quick test_pool_ordering;
          Alcotest.test_case "failure isolation" `Quick test_pool_failure_isolation;
          Alcotest.test_case "wall-budget cancellation" `Quick test_pool_cancellation;
          Alcotest.test_case "edge sizes" `Quick test_pool_empty_and_single;
          Alcotest.test_case "workers kept across calls" `Quick test_pool_workers_kept;
          Alcotest.test_case "nested call" `Quick test_pool_nested;
          Alcotest.test_case "concurrent callers" `Quick test_pool_concurrent_callers;
          Alcotest.test_case "raising on_done" `Quick test_pool_on_done_raises;
        ] );
      ( "run_batch",
        [
          Alcotest.test_case "parallel = sequential (bit-identical)" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "node-budget blow-up isolated" `Quick
            test_batch_node_budget_isolated;
          Alcotest.test_case "wall budget cancels" `Quick test_batch_wall_budget;
          Alcotest.test_case "obs aggregation" `Quick test_batch_obs_aggregation;
          QCheck_alcotest.to_alcotest prop_batch_deterministic;
        ] );
      ( "config",
        [ Alcotest.test_case "builder and setters" `Quick test_config_builder ] );
    ]
