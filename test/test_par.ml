(* Tests for intra-problem parallelism: the concurrent store + Pbdd
   algorithm layer + layer-parallel conversion must be bit-identical to
   the sequential engine — same yields, same diagram sizes, same ROMDD
   node ids — for any circuit, ordering, and team size, and a budget trip
   mid-parallel-build must leave the store structurally consistent. *)

module C = Socy_logic.Circuit
module P = Socy_core.Pipeline
module M = Socy_bdd.Manager
module Pbdd = Socy_bdd.Pbdd
module Par = Socy_bdd.Par
module Store = Socy_bdd.Store
module Compile = Socy_bdd.Compile
module Mdd = Socy_mdd.Mdd
module Model = Socy_defects.Model
module D = Socy_defects.Distribution
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics

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
   Tables 2-3, so the parallel engine is exercised under level layouts it
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
      | Ok s, Ok p ->
          (* exact float equality on purpose: the engines must agree bit
             for bit, not merely within tolerance *)
          s.P.yield_lower = p.P.yield_lower
          && s.P.yield_upper = p.P.yield_upper
          && s.P.m = p.P.m
          && s.P.robdd_size = p.P.robdd_size
          && s.P.romdd_size = p.P.romdd_size
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
(* Engine-level: the Pbdd/Store path against the sequential Manager    *)
(* ------------------------------------------------------------------ *)

let test_engine_bit_identity () =
  let rows = S.table_rows () in
  let row = List.find (fun r -> S.row_label r = "MS2, l'=1") rows in
  let circuit = row.S.instance.S.circuit in
  let n = circuit.C.num_inputs in
  let m_seq = M.create ~num_vars:n () in
  let root_seq, st_seq = Compile.of_circuit m_seq circuit ~var_of_input:Fun.id in
  let team = Par.spawn ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Par.shutdown team)
    (fun () ->
      let pb = Pbdd.create ~team ~num_vars:n () in
      let m_par = M.create ~num_vars:n () in
      let root_par, st_par = Compile.of_circuit_par pb m_par circuit ~var_of_input:Fun.id in
      Store.check_invariants (Pbdd.store pb);
      Alcotest.(check int) "final size" st_seq.Compile.final_size st_par.Compile.final_size;
      (* handle values differ between the managers (the sequential one
         also numbered dead intermediates), so identity is checked
         semantically: same function on sampled assignments *)
      let rng = Random.State.make [| 2003 |] in
      for _ = 1 to 500 do
        let mask = Random.State.bits rng in
        let env v = (mask lsr (v mod 30)) land 1 = 1 in
        if M.eval m_seq root_seq env <> M.eval m_par root_par env then
          Alcotest.fail "parallel build computes a different function"
      done;
      Alcotest.(check bool) "par path reports gc_runs = 0" true
        (st_par.Compile.gc_runs = 0 && st_par.Compile.reorders = 0))

(* ------------------------------------------------------------------ *)
(* Budget abort under parallelism                                      *)
(* ------------------------------------------------------------------ *)

(* A node-budget trip on any domain must abort every participant and
   leave the store with only complete, canonical nodes. *)
let test_budget_abort_store_consistent () =
  let b = C.builder ~num_inputs:64 () in
  let ft =
    C.finish b ~name:"xor64" (C.xor_ b (List.init 64 (C.input b)))
  in
  let team = Par.spawn ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Par.shutdown team)
    (fun () ->
      let pb = Pbdd.create ~node_limit:40 ~team ~num_vars:64 () in
      let m = M.create ~num_vars:64 () in
      (match Compile.of_circuit_par pb m ft ~var_of_input:Fun.id with
      | exception M.Node_limit_exceeded -> ()
      | _ -> Alcotest.fail "expected Node_limit_exceeded");
      (* quiesced after the team drained: every published node complete *)
      Store.check_invariants (Pbdd.store pb);
      Alcotest.(check bool) "creations were counted" true (Pbdd.created pb > 0))

(* The pipeline wrapper must map the trip to the typed Node_budget
   failure with the parallel engine's peak figure, like the sequential
   path does. *)
let test_pipeline_budget_abort () =
  let rows = S.table_rows () in
  let row = List.find (fun r -> S.row_label r = "MS4, l'=1") rows in
  let config = P.Config.make ~node_limit:5_000 ~par_domains:4 () in
  match P.run_lethal ~config row.S.instance.S.circuit (S.lethal row) with
  | Error (P.Node_budget { stage; peak }) ->
      Alcotest.(check string) "stage" "coded-robdd" stage;
      Alcotest.(check bool) "peak reported from the parallel store" true (peak > 0)
  | Error f -> Alcotest.failf "unexpected failure: %s" (P.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected Node_budget"

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

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_par"
    [
      qsuite "par-vs-seq-props"
        [ prop_par_equals_seq; prop_par_romdd_root_identical ];
      ( "engine",
        [
          Alcotest.test_case "MS2 bit identity, 3 domains" `Quick
            test_engine_bit_identity;
        ] );
      ( "budget-abort",
        [
          Alcotest.test_case "store consistent after trip" `Quick
            test_budget_abort_store_consistent;
          Alcotest.test_case "pipeline Node_budget on par path" `Quick
            test_pipeline_budget_abort;
        ] );
      ( "team",
        [
          Alcotest.test_case "all tasks run exactly once" `Quick
            test_par_run_executes_all_tasks;
          Alcotest.test_case "first exception wins, team reusable" `Quick
            test_par_first_exception_wins;
        ] );
    ]
