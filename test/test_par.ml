(* Tests for intra-problem parallelism: a team of domains converts the
   coded ROBDD layer by layer, and a run on a team must report exactly
   what the sequential run reports — same yields, sizes, peaks and engine
   counters, same ROMDD node ids — for any circuit, ordering and team
   size, with or without sifting, and on a budget trip. *)

module C = Socy_logic.Circuit
module P = Socy_core.Pipeline
module Par = Socy_bdd.Par
module Mdd = Socy_mdd.Mdd
module Model = Socy_defects.Model
module D = Socy_defects.Distribution
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Ctx = Socy_obs.Ctx
module Obs = Socy_obs.Obs

(* ------------------------------------------------------------------ *)
(* Random fault trees                                                  *)
(* ------------------------------------------------------------------ *)

type rexpr =
  | RVar of int
  | RNot of rexpr
  | RAnd of rexpr * rexpr
  | ROr of rexpr * rexpr
  | RXor of rexpr * rexpr

let rec rexpr_print = function
  | RVar i -> Printf.sprintf "x%d" i
  | RNot e -> Printf.sprintf "!(%s)" (rexpr_print e)
  | RAnd (a, b) -> Printf.sprintf "(%s&%s)" (rexpr_print a) (rexpr_print b)
  | ROr (a, b) -> Printf.sprintf "(%s|%s)" (rexpr_print a) (rexpr_print b)
  | RXor (a, b) -> Printf.sprintf "(%s^%s)" (rexpr_print a) (rexpr_print b)

let gen_rexpr num_vars =
  QCheck.Gen.(
    sized_size (int_bound 10)
    @@ fix (fun self size ->
           if size <= 0 then map (fun i -> RVar i) (int_bound (num_vars - 1))
           else
             frequency
               [
                 (1, map (fun i -> RVar i) (int_bound (num_vars - 1)));
                 (1, map (fun e -> RNot e) (self (size - 1)));
                 (2, map2 (fun a b -> RAnd (a, b)) (self (size / 2)) (self (size / 2)));
                 (2, map2 (fun a b -> ROr (a, b)) (self (size / 2)) (self (size / 2)));
                 (1, map2 (fun a b -> RXor (a, b)) (self (size / 2)) (self (size / 2)));
               ]))

let nvars = 5

let circuit_of_rexpr e =
  let b = C.builder ~num_inputs:nvars () in
  let rec go = function
    | RVar i -> C.input b i
    | RNot e -> C.not_ b (go e)
    | RAnd (x, y) -> C.and_ b [ go x; go y ]
    | ROr (x, y) -> C.or_ b [ go x; go y ]
    | RXor (x, y) -> C.xor_ b [ go x; go y ]
  in
  C.finish b ~name:"qcheck-par" (go e)

let lethal =
  {
    Model.count = D.of_array [| 0.35; 0.3; 0.2; 0.1; 0.05 |];
    component = Array.make nvars (1.0 /. float_of_int nvars);
    p_lethal = 0.15;
  }

(* A few ordering schemes spanning both sweep dimensions of the paper's
   Tables 2-3, so the team conversion is exercised under level layouts it
   did not pick itself. *)
let orderings =
  [
    (Scheme.Heur H.Weight, Scheme.Ml);
    (Scheme.Wv, Scheme.Lm);
    (Scheme.Vw, Scheme.Ml);
    (Scheme.Heur H.Weight, Scheme.Heur_bits H.Weight);
  ]

let config ~par_domains (mv, bits) =
  P.Config.make ~mv_order:mv ~bit_order:bits ~par_domains ()

(* A report without its timings: every other field must not depend on the
   team. Structural equality compares the floats exactly, on purpose. *)
let timeless r = { r with P.cpu_seconds = 0.0; stage_times = []; stage_gc = [] }

(* ------------------------------------------------------------------ *)
(* Property: parallel pipeline == sequential pipeline, bit for bit     *)
(* ------------------------------------------------------------------ *)

let arb_case =
  QCheck.make
    ~print:(fun (e, d, oi) ->
      Printf.sprintf "%s / domains=%d / ordering#%d" (rexpr_print e) d oi)
    QCheck.Gen.(
      triple (gen_rexpr nvars) (oneofl [ 1; 2; 3; 4 ])
        (int_bound (List.length orderings - 1)))

let prop_par_equals_seq =
  QCheck.Test.make ~name:"parallel run bit-identical to sequential" ~count:30
    arb_case
    (fun (e, domains, oi) ->
      let ft = circuit_of_rexpr e in
      let ord = List.nth orderings oi in
      let seq = P.run_lethal ~config:(config ~par_domains:1 ord) ft lethal in
      let par = P.run_lethal ~config:(config ~par_domains:domains ord) ft lethal in
      match (seq, par) with
      | Ok s, Ok p -> timeless s = timeless p
      | Error _, Error _ -> true
      | _ -> false)

(* The ROMDD roots, node ids included, must coincide: layer-parallel
   conversion only distributes the read-only simulation phase and keeps
   every [Mdd.mk] in the sequential call order. *)
let prop_par_romdd_root_identical =
  QCheck.Test.make ~name:"parallel ROMDD root id equals sequential" ~count:20
    arb_case
    (fun (e, domains, oi) ->
      let ft = circuit_of_rexpr e in
      let ord = List.nth orderings oi in
      let build par_domains =
        P.Artifacts.build ~config:(config ~par_domains ord) ft lethal
      in
      match (build 1, build domains) with
      | Ok s, Ok p ->
          s.P.Artifacts.mdd_root = p.P.Artifacts.mdd_root
          && Mdd.size s.P.Artifacts.mdd s.P.Artifacts.mdd_root
             = Mdd.size p.P.Artifacts.mdd p.P.Artifacts.mdd_root
      | Error _, Error _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Whole runs on a team                                                *)
(* ------------------------------------------------------------------ *)

(* Sifting and a team combine: the order is walked back to the static
   layout before the team converts. MS2 under vrw sifts several times. *)
let test_reorder_with_team () =
  let row = List.find (fun r -> S.row_label r = "MS2, l'=1") (S.table_rows ()) in
  let run par_domains =
    let config = P.Config.make ~mv_order:Scheme.Vrw ~reorder:true ~par_domains () in
    match P.run_lethal ~config row.S.instance.S.circuit (S.lethal row) with
    | Ok r -> r
    | Error f -> Alcotest.failf "%d domains: %s" par_domains (P.failure_to_string f)
  in
  let seq = run 1 in
  Obs.reset ();
  Obs.set_enabled true;
  let par =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> run 2)
  in
  let par_layers = Obs.counter_value (Obs.counter "mdd.convert.par_layers") in
  Obs.reset ();
  Alcotest.(check bool) "sifting ran" true (seq.P.reorder_runs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "the team converted (%d parallel layers)" par_layers)
    true (par_layers > 0);
  Alcotest.(check bool) "every field but the timings equal" true (timeless seq = timeless par)

(* The team only converts, so the build's computed cache is the
   sequential manager's: at [cache_bits = 14] it stops at 2^14 lines, at
   21 it may grow to 2^21. Cache size changes hit and miss counts only,
   never a result. *)
let test_cache_cap_keeps_results () =
  let rows = S.table_rows () in
  let row = List.find (fun r -> S.row_label r = "MS2, l'=1") rows in
  let run cache_bits =
    let config = P.Config.make ~par_domains:2 ~cache_bits () in
    match P.run_lethal ~config row.S.instance.S.circuit (S.lethal row) with
    | Ok r -> r
    | Error f -> Alcotest.failf "cache_bits %d: %s" cache_bits (P.failure_to_string f)
  in
  let floor = run 14 and capped = run 21 in
  Alcotest.(check int64) "yield bits"
    (Int64.bits_of_float floor.P.yield_lower)
    (Int64.bits_of_float capped.P.yield_lower);
  Alcotest.(check int64) "upper yield bits"
    (Int64.bits_of_float floor.P.yield_upper)
    (Int64.bits_of_float capped.P.yield_upper);
  Alcotest.(check int) "ROBDD size" floor.P.robdd_size capped.P.robdd_size;
  Alcotest.(check int) "ROMDD size" floor.P.romdd_size capped.P.romdd_size

(* A node-budget trip happens in the sequential build, before any team
   exists, so it is the typed failure [par_domains = 1] gives, peak
   included. *)
let test_pipeline_budget_abort () =
  let rows = S.table_rows () in
  let row = List.find (fun r -> S.row_label r = "MS4, l'=1") rows in
  let run par_domains =
    let config = P.Config.make ~node_limit:5_000 ~par_domains () in
    P.run_lethal ~config row.S.instance.S.circuit (S.lethal row)
  in
  match (run 1, run 4) with
  | Error (P.Node_budget { stage; _ } as seq), Error par ->
      Alcotest.(check string) "stage" "coded-robdd" stage;
      Alcotest.(check string) "same failure on 4 domains" (P.failure_to_string seq)
        (P.failure_to_string par)
  | Error f, _ | _, Error f -> Alcotest.failf "unexpected failure: %s" (P.failure_to_string f)
  | Ok _, Ok _ -> Alcotest.fail "expected Node_budget"

(* ------------------------------------------------------------------ *)
(* Team mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_par_run_executes_all_tasks () =
  let team = Par.spawn ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Par.shutdown team)
    (fun () ->
      let n = 100 in
      let hits = Array.make n (Atomic.make 0) in
      Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
      Par.run team
        (Array.init n (fun i () -> Atomic.incr hits.(i)));
      Array.iteri
        (fun i a ->
          Alcotest.(check int) (Printf.sprintf "task %d ran exactly once" i) 1
            (Atomic.get a))
        hits)

let test_par_first_exception_wins () =
  let team = Par.spawn ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Par.shutdown team)
    (fun () ->
      let ran = Atomic.make 0 in
      (match
         Par.run team
           (Array.init 8 (fun i () ->
                Atomic.incr ran;
                if i = 3 then failwith "boom"))
       with
      | exception Failure msg -> Alcotest.(check string) "exception" "boom" msg
      | () -> Alcotest.fail "expected Failure");
      (* the team must be reusable after a failed job *)
      let ok = Atomic.make 0 in
      Par.run team (Array.init 4 (fun _ () -> Atomic.incr ok));
      Alcotest.(check int) "team reusable after failure" 4 (Atomic.get ok))

(* A spawned team runs tasks on more than one domain, and every task sees
   the caller's request id wherever it runs. Each task waits, up to a
   deadline, until a second task has started, so the caller cannot drain
   the job alone. The team is shut down twice: once here, once on exit. *)
let test_team_domains_and_context () =
  let team = Par.spawn ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Par.shutdown team)
    (fun () ->
      let n = 4 in
      let started = Atomic.make 0 in
      let domain_of = Array.make n (-1) and rid_of = Array.make n None in
      let task i () =
        Atomic.incr started;
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.0005
        done;
        domain_of.(i) <- (Domain.self () :> int);
        rid_of.(i) <- Ctx.get ()
      in
      Ctx.with_request 42 (fun () -> Par.run team (Array.init n task));
      let distinct = List.sort_uniq compare (Array.to_list domain_of) in
      Alcotest.(check int) "tasks ran on two domains" 2 (List.length distinct);
      Array.iteri
        (fun i rid ->
          Alcotest.(check (option int))
            (Printf.sprintf "task %d sees the caller's request id" i)
            (Some 42) rid)
        rid_of;
      Par.shutdown team)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_par"
    [
      qsuite "par-vs-seq-props"
        [ prop_par_equals_seq; prop_par_romdd_root_identical ];
      ( "engine",
        [
          Alcotest.test_case "MS2 vrw reorder, 2 domains = 1" `Quick
            test_reorder_with_team;
          Alcotest.test_case "MS2 cache cap 14 = 21, 2 domains" `Quick
            test_cache_cap_keeps_results;
        ] );
      ( "budget-abort",
        [
          Alcotest.test_case "pipeline Node_budget on par path" `Quick
            test_pipeline_budget_abort;
        ] );
      ( "team",
        [
          Alcotest.test_case "all tasks run exactly once" `Quick
            test_par_run_executes_all_tasks;
          Alcotest.test_case "first exception wins, team reusable" `Quick
            test_par_first_exception_wins;
          Alcotest.test_case "two domains, caller's request id" `Quick
            test_team_domains_and_context;
        ] );
    ]
