(* Tests for Socy_order: the topology / weight / H4 heuristics and the
   combination of multiple-valued and bit-group orderings into a concrete
   group-contiguous binary ordering. *)

module C = Socy_logic.Circuit
module Parse = Socy_logic.Parse
module H = Socy_order.Heuristics
module Scheme = Socy_order.Scheme
module P = Socy_encode.Problem

let check_int = Alcotest.(check int)

let is_permutation rank =
  let n = Array.length rank in
  let seen = Array.make n false in
  Array.for_all
    (fun r -> r >= 0 && r < n && not seen.(r) && (seen.(r) <- true; true))
    rank

(* ------------------------------------------------------------------ *)
(* Heuristics on hand-crafted circuits                                  *)
(* ------------------------------------------------------------------ *)

let test_topology_order () =
  (* output = (x2 & x0) | x1 : DFS leftmost visits x2, x0, x1 *)
  let b = C.builder ~num_inputs:3 () in
  let g =
    C.or_ b [ C.and_ b [ C.input b 2; C.input b 0 ]; C.input b 1 ]
  in
  let circuit = C.finish b ~name:"t" g in
  let rank = H.topology circuit in
  check_int "x2 first" 0 rank.(2);
  check_int "x0 second" 1 rank.(0);
  check_int "x1 third" 2 rank.(1)

let test_topology_unreachable_inputs_last () =
  let b = C.builder ~num_inputs:4 () in
  let circuit = C.finish b ~name:"t" (C.input b 2) in
  let rank = H.topology circuit in
  check_int "x2 first" 0 rank.(2);
  (* the rest in index order *)
  check_int "x0" 1 rank.(0);
  check_int "x1" 2 rank.(1);
  check_int "x3" 3 rank.(3)

let test_weight_reorders_fanin () =
  (* output = AND(or3(x0,x1,x2), x3): weight of the OR is 3, of x3 is 1,
     so the weight heuristic visits x3 first; topology visits the OR
     first. *)
  let b = C.builder ~num_inputs:4 () in
  let heavy = C.or_ b [ C.input b 0; C.input b 1; C.input b 2 ] in
  let circuit = C.finish b ~name:"t" (C.and_ b [ heavy; C.input b 3 ]) in
  let topo = H.topology circuit in
  check_int "topology: x0 first" 0 topo.(0);
  check_int "topology: x3 last" 3 topo.(3);
  let w = H.weight circuit in
  check_int "weight: x3 first" 0 w.(3);
  check_int "weight: x0 second" 1 w.(0)

let test_weight_stable_on_ties () =
  (* equal weights: original fan-in order preserved *)
  let b = C.builder ~num_inputs:3 () in
  let circuit =
    C.finish b ~name:"t" (C.and_ b [ C.input b 1; C.input b 0; C.input b 2 ])
  in
  let w = H.weight circuit in
  check_int "x1 first" 0 w.(1);
  check_int "x0 second" 1 w.(0);
  check_int "x2 third" 2 w.(2)

let test_h4_prefers_visited_cones () =
  (* output = OR( AND(x0,x1), AND(x1,x2) ). H4 visits the first AND
     (tie, original order), ranking x0,x1. At the second visit the other
     AND has 1 unvisited input. Final order x0,x1,x2. *)
  let b = C.builder ~num_inputs:3 () in
  let a1 = C.and_ b [ C.input b 0; C.input b 1 ] in
  let a2 = C.and_ b [ C.input b 1; C.input b 2 ] in
  let circuit = C.finish b ~name:"t" (C.or_ b [ a1; a2 ]) in
  let h = H.h4 circuit in
  check_int "x0" 0 h.(0);
  check_int "x1" 1 h.(1);
  check_int "x2" 2 h.(2);
  (* Reversed operands: H4's first criterion (fewer unvisited inputs)
     cannot discriminate two fresh cones of equal size, so the original
     order decides; then the shared-input AND is already covered. *)
  let b2 = C.builder ~num_inputs:3 () in
  let a1 = C.and_ b2 [ C.input b2 2; C.input b2 1 ] in
  let a2 = C.and_ b2 [ C.input b2 1; C.input b2 0 ] in
  let circuit2 = C.finish b2 ~name:"t" (C.or_ b2 [ a1; a2 ]) in
  let h2 = H.h4 circuit2 in
  check_int "x2 first" 0 h2.(2);
  check_int "x1 second" 1 h2.(1);
  check_int "x0 third" 2 h2.(0)

let test_heuristics_are_permutations () =
  let circuits =
    [
      Parse.fault_tree ~num_inputs:5 "atleast(2; x0, x1, x2, x3, x4)";
      Parse.fault_tree ~num_inputs:4 "x3 & (x1 | x0) & xor(x2, x0)";
      (Socy_benchmarks.Suite.ms 2).Socy_benchmarks.Suite.circuit;
      (Socy_benchmarks.Suite.esen ~n:4 ~m:2).Socy_benchmarks.Suite.circuit;
    ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            (Printf.sprintf "%s permutation on %s" (H.name kind) c.C.name)
            true
            (is_permutation (H.rank kind c)))
        [ H.Topology; H.Weight; H.H4 ])
    circuits

(* ------------------------------------------------------------------ *)
(* Schemes                                                             *)
(* ------------------------------------------------------------------ *)

let small_problem () = P.build (Parse.fault_tree ~num_inputs:3 "x0 & x1 | x2") ~m:2

let test_static_mv_orders () =
  let p = small_problem () in
  let seq mv =
    (Scheme.make p ~mv ~bits:Scheme.Ml).Scheme.groups_in_order
  in
  Alcotest.(check (array int)) "wv" [| 0; 1; 2 |] (seq Scheme.Wv);
  Alcotest.(check (array int)) "wvr" [| 0; 2; 1 |] (seq Scheme.Wvr);
  Alcotest.(check (array int)) "vw" [| 1; 2; 0 |] (seq Scheme.Vw);
  Alcotest.(check (array int)) "vrw" [| 2; 1; 0 |] (seq Scheme.Vrw)

let test_bit_orders () =
  let p = small_problem () in
  let ml = Scheme.make p ~mv:Scheme.Wv ~bits:Scheme.Ml in
  let lm = Scheme.make p ~mv:Scheme.Wv ~bits:Scheme.Lm in
  (* group 0 = w, inputs 0 (msb) and 1 (lsb) *)
  check_int "ml: msb at level 0" 0 ml.Scheme.level_of_input.(0);
  check_int "ml: lsb at level 1" 1 ml.Scheme.level_of_input.(1);
  check_int "lm: lsb at level 0" 0 lm.Scheme.level_of_input.(1);
  check_int "lm: msb at level 1" 1 lm.Scheme.level_of_input.(0)

let test_scheme_is_group_contiguous () =
  let p = P.build (Socy_benchmarks.Suite.ms 2).Socy_benchmarks.Suite.circuit ~m:4 in
  List.iter
    (fun (mv, bits) ->
      let s = Scheme.make p ~mv ~bits in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s level permutation" s.Scheme.mv_name s.Scheme.bit_name)
        true
        (is_permutation s.Scheme.level_of_input);
      (* contiguity: group of consecutive levels changes at block borders
         only, and each group appears in exactly one block *)
      let nvars = P.num_binary_vars p in
      let group_at lv = P.group_of_input p s.Scheme.input_of_level.(lv) in
      let seen = Hashtbl.create 8 in
      let prev = ref (-1) in
      let contiguous = ref true in
      for lv = 0 to nvars - 1 do
        let g = group_at lv in
        if g <> !prev then begin
          if Hashtbl.mem seen g then contiguous := false;
          Hashtbl.add seen g ();
          prev := g
        end
      done;
      Alcotest.(check bool) "contiguous groups" true !contiguous;
      (* inverse maps agree *)
      for lv = 0 to nvars - 1 do
        check_int "inverse" lv s.Scheme.level_of_input.(s.Scheme.input_of_level.(lv))
      done)
    [
      (Scheme.Wv, Scheme.Ml);
      (Scheme.Wvr, Scheme.Lm);
      (Scheme.Vw, Scheme.Ml);
      (Scheme.Vrw, Scheme.Ml);
      (Scheme.Heur H.Topology, Scheme.Ml);
      (Scheme.Heur H.Weight, Scheme.Heur_bits H.Weight);
      (Scheme.Heur H.H4, Scheme.Heur_bits H.H4);
    ]

let test_heuristic_bit_pairing_enforced () =
  let p = small_problem () in
  Alcotest.check_raises "mismatched pairing"
    (Invalid_argument
       "Scheme.make: a heuristic bit order must be paired with the same-named \
        multiple-valued ordering")
    (fun () ->
      ignore (Scheme.make p ~mv:Scheme.Wv ~bits:(Scheme.Heur_bits H.Weight)));
  (* matching pairing is fine *)
  ignore (Scheme.make p ~mv:(Scheme.Heur H.Weight) ~bits:(Scheme.Heur_bits H.Weight))

let test_scheme_names () =
  let p = small_problem () in
  let s = Scheme.make p ~mv:(Scheme.Heur H.Weight) ~bits:Scheme.Ml in
  Alcotest.(check string) "mv name" "w" s.Scheme.mv_name;
  Alcotest.(check string) "bit name" "ml" s.Scheme.bit_name;
  check_int "table2 orders" 7 (List.length Scheme.table2_mv_orders);
  check_int "table3 bit orders" 3 (List.length Scheme.table3_bit_orders)

let test_group_positions_inverse () =
  let p = small_problem () in
  let s = Scheme.make p ~mv:Scheme.Vrw ~bits:Scheme.Ml in
  Array.iteri
    (fun pos g -> check_int "positions inverse" pos s.Scheme.group_position.(g))
    s.Scheme.groups_in_order

(* golden/orderings.tsv: [socyield tune -b MS2,ESEN4x1 --domains 2]. It
   loads, and saving what loaded writes the same bytes. *)
let test_golden_registry () =
  let module Registry = Socy_order.Registry in
  let golden = Filename.concat "golden" "orderings.tsv" in
  let entries = Registry.load golden in
  Alcotest.(check (list string)) "families" [ "ESEN4x1"; "MS2" ]
    (List.map (fun e -> e.Registry.family) entries);
  List.iter
    (fun e ->
      Alcotest.(check string) (e.Registry.family ^ ": mv") "wvr"
        (Scheme.mv_order_name e.Registry.mv);
      Alcotest.(check bool) (e.Registry.family ^ ": static") false e.Registry.reorder)
    entries;
  let copy = Filename.temp_file "orderings" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove copy)
    (fun () ->
      Registry.save copy entries;
      let read path = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "save writes the golden bytes" (read golden) (read copy))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let prop_scheme_levels_partition =
  QCheck.Test.make ~name:"every scheme yields a level permutation" ~count:30
    QCheck.(pair (int_bound 3) (int_bound 2))
    (fun (mv_i, bit_i) ->
      let p = small_problem () in
      let mv = List.nth Scheme.table2_mv_orders mv_i in
      let bits = List.nth [ Scheme.Ml; Scheme.Lm; Scheme.Ml ] bit_i in
      let s = Scheme.make p ~mv ~bits in
      is_permutation s.Scheme.level_of_input)

(* The ranks the schemes read, on G of MS4 and ESEN4x2 at M = 6; the
   weights and cones behind them come from the circuit walk. *)
let test_ranks_pinned () =
  let identity = Array.init 33 Fun.id in
  let weight =
    [| 0; 1; 2; 28; 29; 30; 31; 32; 23; 24; 25; 26; 27; 18; 19; 20; 21; 22; 13; 14; 15; 16;
       17; 8; 9; 10; 11; 12; 3; 4; 5; 6; 7 |]
  in
  List.iter
    (fun name ->
      let instance = Socy_benchmarks.Suite.by_name name in
      let g = (P.build instance.Socy_benchmarks.Suite.circuit ~m:6).P.circuit in
      List.iter
        (fun (kind, expected) ->
          Alcotest.(check (array int)) (name ^ " " ^ H.name kind) expected (H.rank kind g))
        [ (H.Topology, identity); (H.Weight, weight); (H.H4, identity) ])
    [ "MS4"; "ESEN4x2" ]

let () =
  Alcotest.run "socy_order"
    [
      ( "heuristics",
        [
          Alcotest.test_case "topology order" `Quick test_topology_order;
          Alcotest.test_case "unreachable inputs last" `Quick
            test_topology_unreachable_inputs_last;
          Alcotest.test_case "weight reorders fan-in" `Quick test_weight_reorders_fanin;
          Alcotest.test_case "weight stable ties" `Quick test_weight_stable_on_ties;
          Alcotest.test_case "h4" `Quick test_h4_prefers_visited_cones;
          Alcotest.test_case "permutations" `Quick test_heuristics_are_permutations;
          Alcotest.test_case "ranks on G pinned" `Quick test_ranks_pinned;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "static mv orders" `Quick test_static_mv_orders;
          Alcotest.test_case "bit orders" `Quick test_bit_orders;
          Alcotest.test_case "group contiguity" `Quick test_scheme_is_group_contiguous;
          Alcotest.test_case "pairing rule" `Quick test_heuristic_bit_pairing_enforced;
          Alcotest.test_case "names" `Quick test_scheme_names;
          Alcotest.test_case "group positions inverse" `Quick test_group_positions_inverse;
        ] );
      qsuite "props" [ prop_scheme_levels_partition ];
      ( "golden",
        [ Alcotest.test_case "socyield-orderings/1 registry" `Quick test_golden_registry ] );
    ]
