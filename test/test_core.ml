(* Integration tests for Socy_core: the end-to-end method against exact
   brute-force enumeration, direct multiple-valued APPLY construction,
   Monte Carlo simulation, and hand-computed closed forms — including the
   paper's Fig. 2 worked example. *)

module C = Socy_logic.Circuit
module Parse = Socy_logic.Parse
module P = Socy_core.Pipeline
module Direct = Socy_core.Direct
module Brute = Socy_core.Brute
module Montecarlo = Socy_core.Montecarlo
module D = Socy_defects.Distribution
module Model = Socy_defects.Model
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Mdd = Socy_mdd.Mdd
module S = Socy_benchmarks.Suite

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let uniform_lethal c ~q =
  {
    Model.count = D.of_array q;
    component = Array.make c (1.0 /. float_of_int c);
    p_lethal = 0.1;
  }

let run_exn ?config ft lethal =
  match P.run_lethal ?config ft lethal with
  | Ok r -> r
  | Error f -> Alcotest.failf "pipeline failed — %s" (P.failure_to_string f)

(* ------------------------------------------------------------------ *)
(* The paper's Fig. 2 worked example                                   *)
(* ------------------------------------------------------------------ *)

let fig2_fault_tree () = Parse.fault_tree ~name:"fig2" "x0 & x1 | x2"

let fig2_lethal () = uniform_lethal 3 ~q:[| 0.4; 0.3; 0.2; 0.1 |]

let fig2_config =
  (* epsilon chosen so that M = 2 exactly as in the figure; ordering
     v1, v2, w as in the figure *)
  P.Config.make ~epsilon:0.11 ~mv_order:Scheme.Vw ()

let test_fig2_romdd_structure () =
  match P.Artifacts.build ~config:fig2_config (fig2_fault_tree ()) (fig2_lethal ()) with
  | Error _ -> Alcotest.fail "fig2 artifacts failed"
  | Ok a ->
      Alcotest.(check int) "M = 2" 2 a.P.Artifacts.m;
      let mdd = a.P.Artifacts.mdd in
      let root = a.P.Artifacts.mdd_root in
      (* 6 nonterminals (1 v1, 2 v2, 3 w) + 2 terminals, exactly the
         diagram of Fig. 2 *)
      Alcotest.(check int) "size" 8 (Mdd.size mdd root);
      (* count nodes per variable *)
      let counts = Array.make 3 0 in
      let seen = Hashtbl.create 16 in
      let rec walk n =
        if not (Hashtbl.mem seen n) then begin
          Hashtbl.add seen n ();
          if not (Mdd.is_terminal n) then begin
            counts.(Mdd.level mdd n) <- counts.(Mdd.level mdd n) + 1;
            Array.iter walk (Mdd.children mdd n)
          end
        end
      in
      walk root;
      (* ordering is v1, v2, w: positions 0, 1, 2 *)
      Alcotest.(check int) "one v1 node" 1 counts.(0);
      Alcotest.(check int) "two v2 nodes" 2 counts.(1);
      Alcotest.(check int) "three w nodes" 3 counts.(2);
      (* root tests v1 *)
      Alcotest.(check string) "root variable" "v1"
        (Mdd.spec mdd (Mdd.level mdd root)).Mdd.name

let test_fig2_yield_by_hand () =
  (* Y_0 = 1, Y_1 = 2/3, Y_2 = 2/9 with uniform P' over three components:
     Y_M = 0.4 + 0.3·(2/3) + 0.2·(2/9). *)
  let expected = 0.4 +. (0.3 *. 2.0 /. 3.0) +. (0.2 *. 2.0 /. 9.0) in
  let r = run_exn ~config:fig2_config (fig2_fault_tree ()) (fig2_lethal ()) in
  check_float ~eps:1e-12 "yield lower" expected r.P.yield_lower;
  check_float ~eps:1e-12 "upper = lower + tail" (expected +. 0.1) r.P.yield_upper;
  check_float ~eps:1e-12 "p_unusable" (1.0 -. expected) r.P.p_unusable

let test_fig2_brute_and_direct_agree () =
  let ft = fig2_fault_tree () and lethal = fig2_lethal () in
  let r = run_exn ~config:fig2_config ft lethal in
  let brute_y, per_k = Brute.yield_m ft lethal ~m:2 in
  check_float ~eps:1e-12 "brute matches" brute_y r.P.yield_lower;
  check_float ~eps:1e-12 "Y_0" 1.0 per_k.(0);
  check_float ~eps:1e-12 "Y_1" (2.0 /. 3.0) per_k.(1);
  check_float ~eps:1e-12 "Y_2" (2.0 /. 9.0) per_k.(2);
  let direct = run_exn ~config:(P.Config.with_route P.Direct fig2_config) ft lethal in
  Alcotest.(check int) "direct M" 2 direct.P.m;
  check_float ~eps:1e-12 "direct matches" r.P.yield_lower direct.P.yield_lower

(* APPLY into the converted diagram's own manager and order finds the
   very node the conversion made. *)
let test_fig2_conversion_equals_direct_apply () =
  match P.Artifacts.build ~config:fig2_config (fig2_fault_tree ()) (fig2_lethal ()) with
  | Error _ -> Alcotest.fail "artifacts failed"
  | Ok a ->
      let direct_root =
        Direct.build a.P.Artifacts.mdd a.P.Artifacts.problem a.P.Artifacts.scheme
      in
      Alcotest.(check int) "same canonical node" a.P.Artifacts.mdd_root direct_root

(* ------------------------------------------------------------------ *)
(* Closed forms                                                        *)
(* ------------------------------------------------------------------ *)

let test_series_system_yield_is_q0 () =
  (* A series system fails on any lethal defect: Y = Q'_0. *)
  let ft = Parse.fault_tree ~name:"series" "x0 | x1 | x2 | x3" in
  let q = [| 0.55; 0.25; 0.12; 0.08 |] in
  let lethal = uniform_lethal 4 ~q in
  let config = P.Config.make ~epsilon:1e-9 () in
  let r = run_exn ~config ft lethal in
  check_float ~eps:1e-12 "series yield" q.(0) r.P.yield_lower

let test_parallel_pair_closed_form () =
  (* 2 components in parallel, victim probabilities (p, 1-p):
     Y_k = p^k + (1-p)^k - [k = 0]. *)
  let ft = Parse.fault_tree ~name:"parallel" "x0 & x1" in
  let p = 0.3 in
  let q = [| 0.5; 0.2; 0.2; 0.1 |] in
  let lethal =
    { Model.count = D.of_array q; component = [| p; 1.0 -. p |]; p_lethal = 0.1 }
  in
  let expected =
    let y k =
      (p ** float_of_int k) +. ((1.0 -. p) ** float_of_int k)
      -. if k = 0 then 1.0 else 0.0
    in
    (q.(0) *. y 0) +. (q.(1) *. y 1) +. (q.(2) *. y 2) +. (q.(3) *. y 3)
  in
  let config = P.Config.make ~epsilon:1e-12 () in
  let r = run_exn ~config ft lethal in
  Alcotest.(check int) "M covers support" 3 r.P.m;
  check_float ~eps:1e-12 "parallel yield" expected r.P.yield_lower

let test_k_of_n_vs_brute () =
  (* 2-of-4 system (fails when at least 3 of 4 components are failed)
     with non-uniform victim probabilities. *)
  let ft = Parse.fault_tree ~name:"koFn" "atleast(3; x0, x1, x2, x3)" in
  let lethal =
    {
      Model.count = D.of_array [| 0.3; 0.25; 0.2; 0.15; 0.1 |];
      component = [| 0.4; 0.3; 0.2; 0.1 |];
      p_lethal = 0.2;
    }
  in
  let config = P.Config.make ~epsilon:1e-12 () in
  let r = run_exn ~config ft lethal in
  let brute_y, _ = Brute.yield_m ft lethal ~m:r.P.m in
  check_float ~eps:1e-12 "k-of-n vs brute" brute_y r.P.yield_lower

(* ------------------------------------------------------------------ *)
(* Cross-validation on assorted systems                                *)
(* ------------------------------------------------------------------ *)

let assorted_systems =
  [
    ("bridge-ish", "x0 & x1 | x2 & x3 | x0 & x4 & x3", 5);
    ("mixed", "(x0 | x1) & (x2 | x3) & (x4 | x0)", 5);
    ("noncoherent", "xor(x0, x1) | x2 & !x3", 4);
    ("threshold", "atleast(2; x0, x1, x2) | x3 & x4", 5);
  ]

let lethal_for c =
  let component = Array.init c (fun i -> float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 component in
  {
    Model.count = D.of_array [| 0.35; 0.3; 0.2; 0.1; 0.05 |];
    component = Array.map (fun w -> w /. total) component;
    p_lethal = 0.15;
  }

let test_pipeline_vs_brute_assorted () =
  List.iter
    (fun (name, src, c) ->
      let ft = Parse.fault_tree ~name ~num_inputs:c src in
      let lethal = lethal_for c in
      let config = P.Config.make ~epsilon:1e-12 () in
      let r = run_exn ~config ft lethal in
      let brute_y, _ = Brute.yield_m ft lethal ~m:r.P.m in
      check_float ~eps:1e-10 name brute_y r.P.yield_lower)
    assorted_systems

let test_pipeline_vs_direct_assorted () =
  List.iter
    (fun (name, src, c) ->
      let ft = Parse.fault_tree ~name ~num_inputs:c src in
      let lethal = lethal_for c in
      let config = P.Config.make ~epsilon:1e-6 () in
      let r = run_exn ~config ft lethal in
      let direct = run_exn ~config:(P.Config.with_route P.Direct config) ft lethal in
      check_float ~eps:1e-10 name direct.P.yield_lower r.P.yield_lower)
    assorted_systems

let test_yield_invariant_under_ordering () =
  (* The ROMDD size varies with the ordering; the yield must not. *)
  let ft = Parse.fault_tree ~name:"inv" ~num_inputs:4 "x0 & x1 | x2 & x3" in
  let lethal = lethal_for 4 in
  let reference =
    (run_exn ~config:(P.Config.make ~epsilon:1e-9 ()) ft lethal).P.yield_lower
  in
  List.iter
    (fun mv ->
      let config = P.Config.make ~epsilon:1e-9 ~mv_order:mv () in
      let r = run_exn ~config ft lethal in
      check_float ~eps:1e-12
        (Printf.sprintf "ordering %s" (Scheme.mv_order_name mv))
        reference r.P.yield_lower)
    Scheme.table2_mv_orders;
  List.iter
    (fun bits ->
      let config = P.Config.make ~epsilon:1e-9 ~bit_order:bits ~mv_order:Scheme.Wv () in
      let r = run_exn ~config ft lethal in
      check_float ~eps:1e-12 "bit order" reference r.P.yield_lower)
    [ Scheme.Ml; Scheme.Lm ]

let test_monte_carlo_brackets_pipeline () =
  let ft = Parse.fault_tree ~name:"mc" ~num_inputs:4 "x0 & x1 | x2 & x3" in
  let lethal = lethal_for 4 in
  let r = run_exn ~config:(P.Config.make ~epsilon:1e-9 ()) ft lethal in
  let mc = Montecarlo.run ~seed:7L ~trials:60_000 ft lethal in
  Alcotest.(check bool) "CI brackets exact yield" true
    (mc.Montecarlo.ci_low <= r.P.yield_upper
    && mc.Montecarlo.ci_high >= r.P.yield_lower);
  Alcotest.(check int) "trials recorded" 60_000 mc.Montecarlo.trials;
  (* determinism *)
  let mc2 = Montecarlo.run ~seed:7L ~trials:60_000 ft lethal in
  check_float ~eps:0.0 "deterministic" mc.Montecarlo.estimate mc2.Montecarlo.estimate

(* ------------------------------------------------------------------ *)
(* Error control and failure path                                      *)
(* ------------------------------------------------------------------ *)

let test_epsilon_bound_honored () =
  let ft = Parse.fault_tree ~name:"eps" ~num_inputs:3 "x0 & x1 | x2" in
  let q = D.negative_binomial ~mean:8.0 ~alpha:2.0 in
  let model = Model.create q [| 0.05; 0.03; 0.02 |] in
  List.iter
    (fun epsilon ->
      let config = P.Config.make ~epsilon () in
      match P.run ~config ft model with
      | Error _ -> Alcotest.fail "unexpected failure"
      | Ok r ->
          Alcotest.(check bool) "band within epsilon" true
            (r.P.yield_upper -. r.P.yield_lower <= epsilon +. 1e-12);
          Alcotest.(check bool) "band positive" true
            (r.P.yield_upper >= r.P.yield_lower))
    [ 0.05; 1e-2; 1e-3; 1e-4 ]

let test_tighter_epsilon_monotone () =
  (* Smaller epsilon means larger M and a (weakly) larger lower bound. *)
  let ft = Parse.fault_tree ~name:"mono" ~num_inputs:3 "x0 & x1 & x2" in
  let q = D.negative_binomial ~mean:5.0 ~alpha:1.0 in
  let model = Model.create q [| 0.04; 0.04; 0.02 |] in
  let results =
    List.map
      (fun epsilon ->
        match P.run ~config:(P.Config.make ~epsilon ()) ft model with
        | Ok r -> r
        | Error _ -> Alcotest.fail "unexpected failure")
      [ 0.1; 1e-2; 1e-3 ]
  in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "M grows" true (b.P.m >= a.P.m);
        Alcotest.(check bool) "lower bound grows" true
          (b.P.yield_lower >= a.P.yield_lower -. 1e-12);
        pairs rest
    | _ -> ()
  in
  pairs results

let test_node_limit_failure_reported () =
  let row = List.nth (Socy_benchmarks.Suite.table_rows ()) 1 (* MS4, l'=1 *) in
  let ft = row.Socy_benchmarks.Suite.instance.Socy_benchmarks.Suite.circuit in
  let config = P.Config.make ~node_limit:5_000 () in
  match P.run ~config ft (Socy_benchmarks.Suite.model row) with
  | Ok _ -> Alcotest.fail "expected node-limit failure"
  | Error (P.Node_budget { stage; peak }) ->
      Alcotest.(check string) "stage" "coded-robdd" stage;
      Alcotest.(check bool) "peak near limit" true (peak >= 5_000)
  | Error f -> Alcotest.failf "wrong failure: %s" (P.failure_to_string f)

(* ------------------------------------------------------------------ *)
(* Routes: the coded ROBDD and direct APPLY build the same ROMDD       *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* Both routes' artifacts of one problem must agree bit for bit on every
   yield the sweep prices, and on M and the ROMDD size. *)
let routes_agree ~config ft lethal =
  let build route =
    match P.Artifacts.build ~config:(P.Config.with_route route config) ft lethal with
    | Ok a -> (a, P.Artifacts.report a ~cpu_seconds:0.0)
    | Error f -> Alcotest.failf "%s route failed — %s" (P.route_name route) (P.failure_to_string f)
  in
  let ca, cr = build P.Coded and da, dr = build P.Direct in
  cr.P.m = dr.P.m
  && cr.P.romdd_size = dr.P.romdd_size
  && bits cr.P.yield_lower = bits dr.P.yield_lower
  && bits cr.P.yield_upper = bits dr.P.yield_upper
  && bits cr.P.p_unusable = bits dr.P.p_unusable
  && Array.map bits (P.Artifacts.conditional_yields ca)
     = Array.map bits (P.Artifacts.conditional_yields da)

(* A random fault tree of And, Or, Xor and Not gates over [c] inputs, as
   the parser's concrete syntax. *)
let gen_tree c =
  QCheck.Gen.(
    sized_size (int_range 1 6)
    @@ fix (fun self n ->
           let leaf = map (Printf.sprintf "x%d") (int_range 0 (c - 1)) in
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map2 (Printf.sprintf "(%s & %s)") (self (n / 2)) (self (n / 2)));
                 (2, map2 (Printf.sprintf "(%s | %s)") (self (n / 2)) (self (n / 2)));
                 (1, map2 (Printf.sprintf "xor(%s, %s)") (self (n / 2)) (self (n / 2)));
                 (1, map (Printf.sprintf "!%s") (self (n - 1)));
               ]))

let gen_route_case =
  QCheck.Gen.(
    int_range 2 5 >>= fun c ->
    quad (gen_tree c)
      (array_size (return c) (float_range 0.05 1.0))
      (array_size (int_range 2 6) (float_range 0.01 1.0))
      (pair
         (oneofl [ 1e-1; 1e-2; 1e-3; 1e-6 ])
         (oneofl Scheme.table2_mv_orders))
    >|= fun (src, weights, q, (epsilon, mv)) -> (c, src, weights, q, epsilon, mv))

let prop_routes_agree =
  QCheck.Test.make ~name:"coded and direct routes give the same bits" ~count:60
    (QCheck.make
       ~print:(fun (c, src, _, _, epsilon, mv) ->
         Printf.sprintf "%d inputs: %s, eps %g, %s" c src epsilon (Scheme.mv_order_name mv))
       gen_route_case)
    (fun (c, src, weights, q, epsilon, mv) ->
      let ft = Parse.fault_tree ~name:"random" ~num_inputs:c src in
      let norm a =
        let t = Array.fold_left ( +. ) 0.0 a in
        Array.map (fun x -> x /. t) a
      in
      let lethal =
        { Model.count = D.of_array (norm q); component = norm weights; p_lethal = 0.1 }
      in
      routes_agree ~config:(P.Config.make ~epsilon ~mv_order:mv ()) ft lethal)

(* The six light rows of the paper's Table 4, at the default orders. *)
let test_routes_agree_table4 () =
  List.iter
    (fun label ->
      let row = List.find (fun r -> S.row_label r = label) (S.table_rows ()) in
      Alcotest.(check bool) label true
        (routes_agree ~config:P.default_config row.S.instance.S.circuit (S.lethal row)))
    [ "MS2, l'=1"; "MS4, l'=1"; "ESEN4x1, l'=1"; "ESEN4x2, l'=1"; "MS2, l'=2"; "ESEN4x1, l'=2" ]

let ms_row label =
  let row = List.find (fun r -> S.row_label r = label) (S.table_rows ()) in
  (row.S.instance.S.circuit, S.lethal row)

(* The direct route's node budget counts the MDD nodes created, and the
   trip reports that count; the run's report has no ROBDD. *)
let test_direct_node_budget () =
  let ft, lethal = ms_row "MS2, l'=1" in
  let config = P.Config.make ~route:P.Direct () in
  let full =
    match P.run_family ~config ft lethal [] with
    | Ok f -> f
    | Error f -> Alcotest.failf "direct run failed — %s" (P.failure_to_string f)
  in
  let r = full.P.first in
  Alcotest.(check (pair int int)) "no ROBDD figures" (0, 0) (r.P.robdd_peak, r.P.robdd_size);
  Alcotest.(check (list string)) "stages"
    [ "truncate"; "encode"; "order"; "romdd-apply"; "traversal" ]
    (List.map fst r.P.stage_times);
  (* The smallest limit the configuration takes trips on the first node,
     with the two terminals created. *)
  List.iter
    (fun (limit, expected) ->
      match P.run_lethal ~config:(P.Config.with_node_limit limit config) ft lethal with
      | Error (P.Node_budget { stage; peak }) ->
          Alcotest.(check string) "stage" "romdd-apply" stage;
          Alcotest.(check int) "peak = nodes created at the trip" expected peak
      | Ok _ -> Alcotest.failf "expected a node-budget failure below %d nodes" full.P.mdd_nodes
      | Error f -> Alcotest.failf "wrong failure: %s" (P.failure_to_string f))
    [ (full.P.mdd_nodes / 2, full.P.mdd_nodes / 2); (1, 2) ]

let test_direct_cpu_budget () =
  let ft, lethal = ms_row "MS4, l'=1" in
  let config = P.Config.make ~route:P.Direct ~cpu_limit:1e-6 () in
  match P.run_lethal ~config ft lethal with
  | Error (P.Cpu_budget { stage; elapsed }) ->
      Alcotest.(check string) "stage" "romdd-apply" stage;
      Alcotest.(check bool) "elapsed past the budget" true (elapsed > 1e-6)
  | Ok _ -> Alcotest.fail "expected a cpu-budget failure"
  | Error f -> Alcotest.failf "wrong failure: %s" (P.failure_to_string f)

(* Sifting and the domain team configure the coded ROBDD engine. *)
let test_direct_rejects_coded_settings () =
  let rejects what f =
    match f () with
    | (_ : P.config) -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "make ~reorder" (fun () -> P.Config.make ~route:P.Direct ~reorder:true ());
  rejects "make ~par_domains" (fun () -> P.Config.make ~route:P.Direct ~par_domains:2 ());
  rejects "with_route" (fun () -> P.Config.(make ~reorder:true () |> with_route P.Direct));
  rejects "with_reorder" (fun () -> P.Config.(make ~route:P.Direct () |> with_reorder true));
  rejects "with_par_domains" (fun () ->
      P.Config.(make ~route:P.Direct () |> with_par_domains 2))

(* ------------------------------------------------------------------ *)
(* What the circuit walk's order decides, pinned                       *)
(* ------------------------------------------------------------------ *)

(* Per light Table 4 row, at the default configuration: the coded route's
   ROBDD peak and size, ROMDD size, M and yield_lower bits, then the
   direct route's MDD node count. The peak and the node counts follow the
   order in which the gates are built. *)
let table4_pins =
  [
    ("MS2, l'=1", 30150, 23463, 2034, 6, 4606692871088306898L, 3416);
    ("MS4, l'=1", 380233, 212974, 22760, 6, 4606877954483632576L, 46038);
    ("ESEN4x1, l'=1", 21962, 19329, 3046, 6, 4606797513860031847L, 4478);
    ("ESEN4x2, l'=1", 69188, 64497, 6994, 6, 4606485876366116570L, 8920);
    ("MS2, l'=2", 123192, 116090, 7534, 10, 4605669964224976326L, 9632);
    ("ESEN4x1, l'=2", 116946, 105502, 11666, 10, 4605924522122891546L, 15162);
  ]

let test_table4_pins () =
  List.iter
    (fun (label, peak, size, romdd, m, yield_bits, mdd_nodes) ->
      let ft, lethal = ms_row label in
      let r = run_exn ft lethal in
      let check what = Alcotest.(check int) (label ^ " " ^ what) in
      check "robdd_peak" peak r.P.robdd_peak;
      check "robdd_size" size r.P.robdd_size;
      check "romdd_size" romdd r.P.romdd_size;
      check "m" m r.P.m;
      Alcotest.(check int64) (label ^ " yield_lower bits") yield_bits (bits r.P.yield_lower);
      match P.run_family ~config:(P.Config.make ~route:P.Direct ()) ft lethal [] with
      | Ok f -> check "direct mdd_nodes" mdd_nodes f.P.mdd_nodes
      | Error f -> Alcotest.failf "%s direct: %s" label (P.failure_to_string f))
    table4_pins

(* [cpu_seconds] counts the build, its ROMDD traversal and the ROMDD size
   walk: the process CPU time around [run_lethal] exceeds it only by the
   report's assembly, a few records. The size walk visits every child slot
   of the ROMDD, about 15% of the traversal's time on MS4, so leaving it
   out would exceed the 5% bound. Both are CPU clocks of this process, so
   host load does not move the difference; the best of three runs keeps a
   garbage-collection slice in the assembly from deciding. *)
let test_cpu_seconds_include_traversal () =
  let ft, lethal = ms_row "MS4, l'=1" in
  let config = P.Config.make ~route:P.Direct () in
  let outside_share () =
    let t0 = Sys.time () in
    let r = run_exn ~config ft lethal in
    let outside = Sys.time () -. t0 -. r.P.cpu_seconds in
    (outside /. List.assoc "traversal" r.P.stage_times, outside)
  in
  let share, outside =
    List.fold_left min (outside_share ()) [ outside_share (); outside_share () ]
  in
  if share >= 0.05 then
    Alcotest.failf "%.4f s of the run's CPU time is outside cpu_seconds (%.1f%% of the traversal)"
      outside (100.0 *. share)

(* ------------------------------------------------------------------ *)
(* The circuit walk                                                    *)
(* ------------------------------------------------------------------ *)

(* The recursive depth-first, left-most postorder the walk reproduces. *)
let reference_postorder (c : C.t) =
  let seen = Hashtbl.create 64 and order = ref [] in
  let rec visit (n : C.node) =
    if not (Hashtbl.mem seen n.C.id) then begin
      Hashtbl.add seen n.C.id ();
      (match n.C.desc with
      | C.Gate (_, args) -> Array.iter visit args
      | C.Input _ | C.Const _ -> ());
      order := n :: !order
    end
  in
  visit c.C.output;
  List.rev !order

type event = Step of int | Last_use of int | After of int

(* The events [C.fold] must produce, from the reference postorder: each
   node's step, then the nodes whose last consumer it is, in the order of
   their last occurrence among its arguments, then [After]. *)
let expected_events c =
  let order = reference_postorder c in
  let last = Hashtbl.create 64 in
  List.iter
    (fun (n : C.node) ->
      match n.C.desc with
      | C.Gate (_, args) -> Array.iter (fun (a : C.node) -> Hashtbl.replace last a.C.id n.C.id) args
      | C.Input _ | C.Const _ -> ())
    order;
  List.concat_map
    (fun (n : C.node) ->
      let released =
        match n.C.desc with
        | C.Input _ | C.Const _ -> []
        | C.Gate (_, args) ->
            let rec occurs_from j (a : C.node) =
              j < Array.length args && (args.(j) == a || occurs_from (j + 1) a)
            in
            List.filteri
              (fun i (a : C.node) ->
                Hashtbl.find last a.C.id = n.C.id && not (occurs_from (i + 1) a))
              (Array.to_list args)
            |> List.map (fun (a : C.node) -> Last_use a.C.id)
      in
      (Step n.C.id :: released) @ [ After n.C.id ])
    order

(* Runs the walk with every node's value its id, checking that each step
   reads its fan-ins' values and each report carries its node's. *)
let walk_events c =
  let events = ref [] in
  let push e = events := e :: !events in
  let value =
    C.fold c
      ~last_use:(fun n v ->
        Alcotest.(check int) "reported value" n.C.id v;
        push (Last_use n.C.id))
      ~after:(fun n -> push (After n.C.id))
      (fun n value ->
        (match n.C.desc with
        | C.Gate (_, args) ->
            Array.iter (fun (a : C.node) -> Alcotest.(check int) "fan-in value" a.C.id (value a)) args
        | C.Input _ | C.Const _ -> ());
        push (Step n.C.id);
        n.C.id)
  in
  Alcotest.(check int) "output value" c.C.output.C.id (value c.C.output);
  List.rev !events

let walk_matches_reference c =
  let ids = List.map (fun (n : C.node) -> n.C.id) in
  let steps = List.filter_map (function Step id -> Some id | Last_use _ | After _ -> None) in
  let events = walk_events c in
  ids (C.postorder c) = ids (reference_postorder c)
  && List.length (List.sort_uniq compare (steps events)) = List.length (steps events)
  && not (List.mem (Last_use c.C.output.C.id) events)
  && events = expected_events c

let test_walk_hand_cases () =
  let b = C.builder ~num_inputs:3 () in
  let x0 = C.input b 0 and x1 = C.input b 1 and x2 = C.input b 2 in
  let shared = C.and_ b [ x0; x1 ] in
  let cases =
    [
      ("repeated argument", C.and_ b [ x0; x0 ]);
      ("shared subterm", C.or_ b [ shared; C.xor_ b [ shared; x2 ] ]);
      ("repeats out of order", C.gate b C.Nand [ x0; x1; x0 ]);
      ("output is an input", x1);
      ("output is a constant", C.const b true);
    ]
  in
  List.iter
    (fun (name, output) ->
      Alcotest.(check bool) name true (walk_matches_reference (C.finish b ~name output)))
    cases;
  (* x1's last use comes before x0's: x0 occurs again later in the gate. *)
  let nand = C.finish b ~name:"nand" (C.gate b C.Nand [ x0; x1; x0 ]) in
  Alcotest.(check bool) "reports in last-occurrence order" true
    (List.filter (function Last_use _ -> true | Step _ | After _ -> false) (walk_events nand)
    = [ Last_use x1.C.id; Last_use x0.C.id ])

(* [C.reduce] over Booleans is [C.eval]'s truth table, for every gate kind
   at fan-in three. *)
let test_reduce_matches_eval () =
  let ops = { C.and_ = ( && ); or_ = ( || ); xor_ = ( <> ); not_ = not; own = Fun.id } in
  List.iter
    (fun kind ->
      let b = C.builder ~num_inputs:3 () in
      let args = List.init (if kind = C.Not then 1 else 3) (C.input b) in
      let c = C.finish b ~name:(C.gate_kind_name kind) (C.gate b kind args) in
      for bits = 0 to 7 do
        let assignment i = bits land (1 lsl i) <> 0 in
        let reduced =
          C.fold c
            (fun n value ->
              match n.C.desc with
              | C.Input i -> assignment i
              | C.Const v -> v
              | C.Gate (kind, args) -> C.reduce ops kind args value)
            c.C.output
        in
        Alcotest.(check bool) (C.gate_kind_name kind) (C.eval c assignment) reduced
      done)
    [ C.And; C.Or; C.Not; C.Xor; C.Nand; C.Nor; C.Xnor ]

let prop_walk_matches_reference =
  QCheck.Test.make ~name:"walk order and last uses match the recursive reference" ~count:200
    (QCheck.make ~print:snd QCheck.Gen.(int_range 2 5 >>= fun c -> pair (return c) (gen_tree c)))
    (fun (c, src) -> walk_matches_reference (Parse.fault_tree ~name:"random" ~num_inputs:c src))

(* ------------------------------------------------------------------ *)
(* Report fields                                                       *)
(* ------------------------------------------------------------------ *)

let test_report_consistency () =
  let ft = fig2_fault_tree () in
  let r = run_exn ~config:fig2_config ft (fig2_lethal ()) in
  Alcotest.(check int) "groups = M+1" (r.P.m + 1) r.P.num_groups;
  Alcotest.(check bool) "robdd >= romdd" true (r.P.robdd_size >= r.P.romdd_size);
  Alcotest.(check bool) "peak >= final - terminals" true
    (r.P.robdd_peak >= r.P.robdd_size - 2);
  Alcotest.(check bool) "gate count positive" true (r.P.gate_count > 0);
  check_float ~eps:1e-12 "p_lethal carried" 0.1 r.P.p_lethal;
  Alcotest.(check bool) "cpu time nonnegative" true (r.P.cpu_seconds >= 0.0)

let test_report_observability () =
  (* A real benchmark row (MS2) so the engine sees genuine cache traffic. *)
  let module Obs = Socy_obs.Obs in
  let row = List.hd (Socy_benchmarks.Suite.table_rows ()) in
  let ft = row.Socy_benchmarks.Suite.instance.Socy_benchmarks.Suite.circuit in
  Obs.reset ();
  Obs.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> run_exn ft (Model.to_lethal (Socy_benchmarks.Suite.model row)))
  in
  let stages = List.map fst r.P.stage_times in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "stage %s timed" s) true (List.mem s stages))
    [ "truncate"; "encode"; "order"; "robdd-build"; "romdd-convert"; "traversal" ];
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool) (Printf.sprintf "stage %s >= 0" s) true (t >= 0.0))
    r.P.stage_times;
  Alcotest.(check bool) "unique-table hits" true (r.P.unique_hits > 0);
  Alcotest.(check bool) "ite cache traffic" true
    (r.P.ite_cache_hits > 0 && r.P.ite_cache_misses > 0);
  (* and the enabled run left a trace in the registry *)
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "pipeline span recorded" true
    (List.mem_assoc "pipeline" snap.Obs.spans);
  Alcotest.(check bool) "nested build span recorded" true
    (List.mem_assoc "pipeline/robdd-build/bdd.compile" snap.Obs.spans);
  Alcotest.(check bool) "bdd.created counter" true
    (List.assoc "bdd.created" snap.Obs.counters > 0);
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Brute force itself                                                  *)
(* ------------------------------------------------------------------ *)

let test_brute_budget_guard () =
  let ft = Parse.fault_tree ~num_inputs:30 "x0" in
  let lethal =
    {
      Model.count = D.of_array [| 0.5; 0.5 |];
      component = Array.make 30 (1.0 /. 30.0);
      p_lethal = 0.1;
    }
  in
  Alcotest.check_raises "budget"
    (Invalid_argument "Brute.yield_m: instance too large for exhaustive enumeration")
    (fun () -> ignore (Brute.yield_m ~budget:10 ft lethal ~m:8))

let test_brute_conditional_yields_are_probabilities () =
  let ft = Parse.fault_tree ~num_inputs:3 "x0 & x1 | x2" in
  let lethal = uniform_lethal 3 ~q:[| 0.4; 0.3; 0.2; 0.1 |] in
  let _, per_k = Brute.yield_m ft lethal ~m:3 in
  Array.iteri
    (fun k y ->
      Alcotest.(check bool) (Printf.sprintf "Y_%d in [0,1]" k) true (y >= 0.0 && y <= 1.0))
    per_k;
  (* Y_k is nonincreasing for a coherent system *)
  for k = 1 to 3 do
    Alcotest.(check bool) "monotone" true (per_k.(k) <= per_k.(k - 1) +. 1e-12)
  done

(* ------------------------------------------------------------------ *)
(* Property: pipeline == brute on random small systems                 *)
(* ------------------------------------------------------------------ *)

let prop_pipeline_equals_brute =
  QCheck.Test.make ~name:"pipeline equals brute force on random fault trees" ~count:40
    (QCheck.oneofl
       [
         "x0 | x1 & x2";
         "x0 & x1 & x2";
         "atleast(2; x0, x1, x2)";
         "xor(x0, x1) | x2";
         "!x0 & x1 | x0 & x2";
         "x0";
       ])
    (fun src ->
      let ft = Parse.fault_tree ~num_inputs:3 src in
      let lethal = uniform_lethal 3 ~q:[| 0.3; 0.3; 0.2; 0.15; 0.05 |] in
      let config = P.Config.make ~epsilon:1e-12 () in
      match P.run_lethal ~config ft lethal with
      | Error _ -> false
      | Ok r ->
          let brute_y, _ = Brute.yield_m ft lethal ~m:r.P.m in
          abs_float (brute_y -. r.P.yield_lower) < 1e-10)

(* ------------------------------------------------------------------ *)
(* Importance                                                          *)
(* ------------------------------------------------------------------ *)

let test_importance_series () =
  (* Series system: hardening the component with the largest P_i gains the
     most; gains are positive. *)
  let ft = Parse.fault_tree ~name:"series3" "x0 | x1 | x2" in
  let model =
    Model.create (D.negative_binomial ~mean:6.0 ~alpha:4.0) [| 0.05; 0.02; 0.01 |]
  in
  let base, entries =
    match Socy_core.Importance.yield_gain ~names:[| "a"; "b"; "c" |] ft model with
    | Ok r -> r
    | Error f -> Alcotest.failf "base run failed: %s" (P.failure_to_string f)
  in
  Alcotest.(check int) "one entry per component" 3 (List.length entries);
  (match entries with
  | first :: _ ->
      Alcotest.(check string) "largest P_i first" "a" first.Socy_core.Importance.name
  | [] -> Alcotest.fail "no entries");
  List.iter
    (fun e ->
      Alcotest.(check bool) "gain positive" true (e.Socy_core.Importance.gain > 0.0);
      check_float ~eps:1e-9 "hardened = base + gain"
        e.Socy_core.Importance.hardened_yield
        (e.Socy_core.Importance.base_yield +. e.Socy_core.Importance.gain);
      Alcotest.(check int64) "base_yield is the base report's yield"
        (Int64.bits_of_float base.P.yield_lower)
        (Int64.bits_of_float e.Socy_core.Importance.base_yield))
    entries

let test_importance_irrelevant_component () =
  (* A component the fault tree ignores still absorbs lethal defects; making
     it immune removes those defects entirely, so the gain is positive; but
     hardening it can never hurt. The component that IS the system dominates. *)
  let ft = Parse.fault_tree ~num_inputs:2 "x0" in
  let model =
    Model.create (D.negative_binomial ~mean:6.0 ~alpha:4.0) [| 0.04; 0.04 |]
  in
  (* Thinning invariance: removing an irrelevant component's P_i does not
     change the true yield (the lethal hits on component 0 keep rate
     lambda*P_0), but the two runs truncate at different M, so the measured
     gain is only zero up to the error bound — hence the tight epsilon. *)
  let config = P.Config.make ~epsilon:1e-9 () in
  match Socy_core.Importance.yield_gain ~config ft model with
  | Ok (_, [ first; second ]) ->
      Alcotest.(check int) "critical component first" 0
        first.Socy_core.Importance.component;
      Alcotest.(check bool) "critical gain dominates" true
        (first.Socy_core.Importance.gain > second.Socy_core.Importance.gain);
      Alcotest.(check bool) "irrelevant component gain ~ 0" true
        (abs_float second.Socy_core.Importance.gain < 1e-8)
  | _ -> Alcotest.fail "expected two entries"

let test_conditional_yields_match_brute () =
  let ft = fig2_fault_tree () and lethal = fig2_lethal () in
  match P.Artifacts.build ~config:fig2_config ft lethal with
  | Error _ -> Alcotest.fail "artifacts failed"
  | Ok a ->
      let ys = P.Artifacts.conditional_yields a in
      Alcotest.(check int) "M+1 entries" 3 (Array.length ys);
      check_float ~eps:1e-12 "Y_0" 1.0 ys.(0);
      check_float ~eps:1e-12 "Y_1" (2.0 /. 3.0) ys.(1);
      check_float ~eps:1e-12 "Y_2" (2.0 /. 9.0) ys.(2);
      (* Y_M must reassemble from the conditional yields *)
      let w = Model.w_pmf lethal ~m:2 in
      let reassembled = (w.(0) *. ys.(0)) +. (w.(1) *. ys.(1)) +. (w.(2) *. ys.(2)) in
      let r = P.Artifacts.report a ~cpu_seconds:0.0 in
      check_float ~eps:1e-12 "reassembled Y_M" r.P.yield_lower reassembled

let test_single_sweep_traversal () =
  (* [report] and [conditional_yields] — in any order, any number of times —
     must cost exactly one ROMDD traversal between them, observable through
     the mdd.sweep.runs counter. *)
  let module Obs = Socy_obs.Obs in
  let ft = fig2_fault_tree () and lethal = fig2_lethal () in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      match P.Artifacts.build ~config:fig2_config ft lethal with
      | Error _ -> Alcotest.fail "artifacts failed"
      | Ok a ->
          let r = P.Artifacts.report a ~cpu_seconds:0.0 in
          let ys = P.Artifacts.conditional_yields a in
          let ys' = P.Artifacts.conditional_yields a in
          let r' = P.Artifacts.report a ~cpu_seconds:0.0 in
          Alcotest.(check int) "exactly one sweep" 1
            (Obs.counter_value (Obs.counter "mdd.sweep.runs"));
          Alcotest.(check bool) "memoized yields stable" true (ys = ys');
          check_float ~eps:1e-15 "memoized report stable" r.P.yield_lower
            r'.P.yield_lower;
          (* the memo is what the report recombined *)
          let w = Model.w_pmf lethal ~m:a.P.Artifacts.m in
          let reassembled = ref 0.0 in
          Array.iteri (fun k y -> reassembled := !reassembled +. (w.(k) *. y)) ys;
          check_float ~eps:1e-12 "recombination" r.P.yield_lower !reassembled);
  Obs.reset ()

let test_sweep_matches_brute_on_ms2 () =
  (* The per-k conditional yields of the vectorized sweep against exhaustive
     enumeration on a real benchmark instance (MS2, the head suite row).
     Epsilon is chosen so the truncation stays within Brute's reach. *)
  let row = List.hd (Socy_benchmarks.Suite.table_rows ()) in
  let ft = row.Socy_benchmarks.Suite.instance.Socy_benchmarks.Suite.circuit in
  let lethal = Model.to_lethal (Socy_benchmarks.Suite.model row) in
  let epsilon =
    List.find
      (fun e -> Model.truncation lethal ~epsilon:e <= 4)
      [ 1e-4; 1e-3; 1e-2; 0.05; 0.1; 0.3 ]
  in
  let config = P.Config.make ~epsilon () in
  match P.Artifacts.build ~config ft lethal with
  | Error _ -> Alcotest.fail "artifacts failed"
  | Ok a ->
      Alcotest.(check bool) "nontrivial truncation" true (a.P.Artifacts.m >= 1);
      let ys = P.Artifacts.conditional_yields a in
      let _, per_k = Brute.yield_m ft lethal ~m:a.P.Artifacts.m in
      Alcotest.(check int) "same arity" (Array.length per_k) (Array.length ys);
      Array.iteri
        (fun k y -> check_float ~eps:1e-10 (Printf.sprintf "Y_%d" k) per_k.(k) y)
        ys

let test_victim_sensitivities_finite_difference () =
  let ft = Parse.fault_tree ~name:"sens" ~num_inputs:4 "x0 & x1 | x2 & x3" in
  let lethal = lethal_for 4 in
  let config = P.Config.make ~epsilon:1e-6 () in
  match P.Artifacts.build ~config ft lethal with
  | Error _ -> Alcotest.fail "artifacts failed"
  | Ok a ->
      let grad = P.Artifacts.victim_sensitivities a in
      Alcotest.(check int) "one entry per component" 4 (Array.length grad);
      let base = (P.Artifacts.report a ~cpu_seconds:0.0).P.yield_lower in
      let h = 1e-6 in
      Array.iteri
        (fun i g ->
          let bumped = Array.copy lethal.Model.component in
          bumped.(i) <- bumped.(i) +. h;
          let lethal' = { lethal with Model.component = bumped } in
          match P.Artifacts.build ~config ft lethal' with
          | Error _ -> Alcotest.fail "bumped artifacts failed"
          | Ok a' ->
              let y' = (P.Artifacts.report a' ~cpu_seconds:0.0).P.yield_lower in
              check_float ~eps:1e-4
                (Printf.sprintf "dY/dP'_%d" i)
                ((y' -. base) /. h)
                g)
        grad;
      (* more lethality on any component can only hurt: gradient <= 0 *)
      Array.iter
        (fun g -> Alcotest.(check bool) "nonpositive" true (g <= 1e-12))
        grad

(* ------------------------------------------------------------------ *)
(* Operational reliability (future-work extension)                     *)
(* ------------------------------------------------------------------ *)

let test_reliability_series_closed_form () =
  (* Series system: yield = Q'_0, survival = Q'_0 Π(1-p_i),
     reliability = Π(1-p_i). *)
  let ft = Parse.fault_tree ~name:"series" "x0 | x1 | x2" in
  let q = [| 0.6; 0.25; 0.1; 0.05 |] in
  let lethal = uniform_lethal 3 ~q in
  let p_field = [| 0.1; 0.2; 0.05 |] in
  let r = Socy_core.Reliability.evaluate ~epsilon:1e-12 ft lethal ~p_field in
  let survive_field = 0.9 *. 0.8 *. 0.95 in
  check_float ~eps:1e-12 "yield" q.(0) r.Socy_core.Reliability.yield;
  check_float ~eps:1e-12 "survival" (q.(0) *. survive_field)
    r.Socy_core.Reliability.survival;
  check_float ~eps:1e-12 "reliability" survive_field
    r.Socy_core.Reliability.reliability

let test_reliability_no_field_failures () =
  (* p_field = 0 everywhere: survival = yield, reliability = 1; and the
     yield must agree with the pipeline. *)
  let ft = fig2_fault_tree () in
  let lethal = fig2_lethal () in
  let r =
    Socy_core.Reliability.evaluate ~epsilon:0.11 ft lethal
      ~p_field:(Array.make 3 0.0)
  in
  check_float ~eps:1e-12 "reliability 1" 1.0 r.Socy_core.Reliability.reliability;
  let pipeline = run_exn ~config:fig2_config ft lethal in
  check_float ~eps:1e-12 "yield matches pipeline" pipeline.P.yield_lower
    r.Socy_core.Reliability.yield

let test_reliability_monte_carlo () =
  (* Cross-check survival against simulation on a redundant system. *)
  let ft = Parse.fault_tree ~name:"mixed" ~num_inputs:4 "x0 & x1 | x2 & x3" in
  let lethal = lethal_for 4 in
  let p_field = [| 0.15; 0.1; 0.05; 0.2 |] in
  let r = Socy_core.Reliability.evaluate ~epsilon:1e-10 ft lethal ~p_field in
  (* simulate: sample defects like Montecarlo, add field failures *)
  let rng = Socy_util.Prng.create 11L in
  let k_cdf = Socy_defects.Distribution.sampler lethal.Model.count ~max_k:60 in
  let c_cdf =
    let acc = ref 0.0 in
    Array.map
      (fun p ->
        acc := !acc +. p;
        !acc)
      lethal.Model.component
  in
  let trials = 80_000 in
  let ok0 = ref 0 and ok_both = ref 0 in
  for _ = 1 to trials do
    let failed = Array.make 4 false in
    let k = Socy_util.Prng.categorical rng ~cdf:k_cdf in
    for _ = 1 to k do
      failed.(Socy_util.Prng.categorical rng ~cdf:c_cdf) <- true
    done;
    let works0 = not (Parse.fault_tree ~num_inputs:4 "x0 & x1 | x2 & x3" |> fun c -> Socy_logic.Circuit.eval c (fun i -> failed.(i))) in
    if works0 then incr ok0;
    for i = 0 to 3 do
      if Socy_util.Prng.float rng < p_field.(i) then failed.(i) <- true
    done;
    let works_t = not (Socy_logic.Circuit.eval ft (fun i -> failed.(i))) in
    if works0 && works_t then incr ok_both
  done;
  let sim_survival = float_of_int !ok_both /. float_of_int trials in
  Alcotest.(check bool) "simulated survival within 1.5%" true
    (abs_float (sim_survival -. r.Socy_core.Reliability.survival) < 0.015);
  Alcotest.(check bool) "reliability in (0,1]" true
    (r.Socy_core.Reliability.reliability > 0.0
    && r.Socy_core.Reliability.reliability <= 1.0)

let test_reliability_clustering_effect () =
  (* With clustered defects, shipping is good news: the truncated defect
     model must make P(defect-failure | shipped) consistent — here we just
     check monotonicity: higher field failure probabilities lower both
     survival and reliability. *)
  let ft = Parse.fault_tree ~name:"par" "x0 & x1" in
  let lethal = uniform_lethal 2 ~q:[| 0.5; 0.3; 0.2 |] in
  let r1 = Socy_core.Reliability.evaluate ft lethal ~p_field:[| 0.05; 0.05 |] in
  let r2 = Socy_core.Reliability.evaluate ft lethal ~p_field:[| 0.3; 0.3 |] in
  Alcotest.(check bool) "survival decreases" true
    (r2.Socy_core.Reliability.survival < r1.Socy_core.Reliability.survival);
  Alcotest.(check bool) "reliability decreases" true
    (r2.Socy_core.Reliability.reliability < r1.Socy_core.Reliability.reliability);
  check_float ~eps:1e-12 "same yield" r1.Socy_core.Reliability.yield
    r2.Socy_core.Reliability.yield

let test_reliability_validation () =
  let ft = Parse.fault_tree ~num_inputs:2 "x0 & x1" in
  let lethal = uniform_lethal 2 ~q:[| 1.0 |] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Reliability.evaluate: p_field arity mismatch") (fun () ->
      ignore (Socy_core.Reliability.evaluate ft lethal ~p_field:[| 0.1 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Reliability.evaluate: p_field entries must be in [0, 1]")
    (fun () -> ignore (Socy_core.Reliability.evaluate ft lethal ~p_field:[| 0.1; 1.5 |]))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_core"
    [
      ( "fig2",
        [
          Alcotest.test_case "romdd structure" `Quick test_fig2_romdd_structure;
          Alcotest.test_case "yield by hand" `Quick test_fig2_yield_by_hand;
          Alcotest.test_case "brute and direct agree" `Quick test_fig2_brute_and_direct_agree;
          Alcotest.test_case "conversion = direct apply" `Quick
            test_fig2_conversion_equals_direct_apply;
        ] );
      ( "closed-forms",
        [
          Alcotest.test_case "series = Q'_0" `Quick test_series_system_yield_is_q0;
          Alcotest.test_case "parallel pair" `Quick test_parallel_pair_closed_form;
          Alcotest.test_case "k-of-n vs brute" `Quick test_k_of_n_vs_brute;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "vs brute (assorted)" `Quick test_pipeline_vs_brute_assorted;
          Alcotest.test_case "vs direct (assorted)" `Quick test_pipeline_vs_direct_assorted;
          Alcotest.test_case "yield ordering-invariant" `Quick
            test_yield_invariant_under_ordering;
          Alcotest.test_case "monte carlo brackets" `Quick test_monte_carlo_brackets_pipeline;
        ] );
      ( "error-control",
        [
          Alcotest.test_case "epsilon honored" `Quick test_epsilon_bound_honored;
          Alcotest.test_case "epsilon monotone" `Quick test_tighter_epsilon_monotone;
          Alcotest.test_case "node-limit failure" `Quick test_node_limit_failure_reported;
        ] );
      ( "routes",
        [
          Alcotest.test_case "Table 4 light rows agree" `Quick test_routes_agree_table4;
          Alcotest.test_case "direct node budget" `Quick test_direct_node_budget;
          Alcotest.test_case "direct cpu budget" `Quick test_direct_cpu_budget;
          Alcotest.test_case "direct rejects coded settings" `Quick
            test_direct_rejects_coded_settings;
          QCheck_alcotest.to_alcotest prop_routes_agree;
        ] );
      ( "walk-pins",
        [
          Alcotest.test_case "Table 4 light rows" `Quick test_table4_pins;
          Alcotest.test_case "cpu_seconds include the traversal" `Quick
            test_cpu_seconds_include_traversal;
        ] );
      ( "walk",
        [
          Alcotest.test_case "hand cases" `Quick test_walk_hand_cases;
          Alcotest.test_case "reduce = eval" `Quick test_reduce_matches_eval;
          QCheck_alcotest.to_alcotest prop_walk_matches_reference;
        ] );
      ( "report",
        [
          Alcotest.test_case "consistency" `Quick test_report_consistency;
          Alcotest.test_case "observability" `Quick test_report_observability;
        ] );
      ( "brute",
        [
          Alcotest.test_case "budget guard" `Quick test_brute_budget_guard;
          Alcotest.test_case "conditional yields" `Quick
            test_brute_conditional_yields_are_probabilities;
        ] );
      ( "importance",
        [
          Alcotest.test_case "series ranking" `Quick test_importance_series;
          Alcotest.test_case "irrelevant component" `Quick
            test_importance_irrelevant_component;
          Alcotest.test_case "victim sensitivities" `Quick
            test_victim_sensitivities_finite_difference;
          Alcotest.test_case "conditional yields" `Quick
            test_conditional_yields_match_brute;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "single traversal" `Quick test_single_sweep_traversal;
          Alcotest.test_case "vs brute on MS2" `Quick test_sweep_matches_brute_on_ms2;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "series closed form" `Quick
            test_reliability_series_closed_form;
          Alcotest.test_case "no field failures" `Quick test_reliability_no_field_failures;
          Alcotest.test_case "monte carlo" `Quick test_reliability_monte_carlo;
          Alcotest.test_case "clustering/monotonicity" `Quick
            test_reliability_clustering_effect;
          Alcotest.test_case "validation" `Quick test_reliability_validation;
        ] );
      qsuite "props" [ prop_pipeline_equals_brute ];
    ]
