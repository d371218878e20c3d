(* Tests for Socy_logic: circuit construction, evaluation, threshold-gate
   synthesis, substitution, traversals, and the fault-tree parser. *)

module C = Socy_logic.Circuit
module Parse = Socy_logic.Parse

(* Evaluate a circuit on a bitmask assignment (bit i = input i). *)
let eval_mask circuit mask = C.eval circuit (fun i -> (mask lsr i) land 1 = 1)

(* Truth table of a circuit over n inputs, as a bool list. *)
let truth_table circuit n =
  List.init (1 lsl n) (fun mask -> eval_mask circuit mask)

(* ------------------------------------------------------------------ *)
(* Builders and evaluation                                             *)
(* ------------------------------------------------------------------ *)

let test_gates_semantics () =
  let b = C.builder ~num_inputs:2 () in
  let x = C.input b 0 and y = C.input b 1 in
  let circ node = C.finish b ~name:"t" node in
  let tt node = truth_table (circ node) 2 in
  Alcotest.(check (list bool)) "and" [ false; false; false; true ] (tt (C.and_ b [ x; y ]));
  Alcotest.(check (list bool)) "or" [ false; true; true; true ] (tt (C.or_ b [ x; y ]));
  Alcotest.(check (list bool)) "xor" [ false; true; true; false ] (tt (C.xor_ b [ x; y ]));
  Alcotest.(check (list bool)) "not" [ true; false; true; false ] (tt (C.not_ b x));
  Alcotest.(check (list bool)) "nand" [ true; true; true; false ]
    (tt (C.gate b C.Nand [ x; y ]));
  Alcotest.(check (list bool)) "nor" [ true; false; false; false ]
    (tt (C.gate b C.Nor [ x; y ]));
  Alcotest.(check (list bool)) "xnor" [ true; false; false; true ]
    (tt (C.gate b C.Xnor [ x; y ]))

let test_nary_gates () =
  let b = C.builder ~num_inputs:3 () in
  let xs = List.init 3 (C.input b) in
  let and3 = C.finish b ~name:"and3" (C.and_ b xs) in
  for mask = 0 to 7 do
    Alcotest.(check bool) "and3" (mask = 7) (eval_mask and3 mask)
  done;
  let xor3 = C.finish b ~name:"xor3" (C.xor_ b xs) in
  for mask = 0 to 7 do
    let parity = (mask lxor (mask lsr 1) lxor (mask lsr 2)) land 1 = 1 in
    Alcotest.(check bool) "xor3 parity" parity (eval_mask xor3 mask)
  done

let test_hash_consing () =
  let b = C.builder ~num_inputs:2 () in
  let x = C.input b 0 and y = C.input b 1 in
  let g1 = C.and_ b [ x; y ] and g2 = C.and_ b [ x; y ] in
  Alcotest.(check bool) "identical gates shared" true (g1 == g2);
  let g3 = C.and_ b [ y; x ] in
  Alcotest.(check bool) "fan-in order significant" true (g1 != g3)

let test_singleton_gate_collapses () =
  let b = C.builder ~num_inputs:1 () in
  let x = C.input b 0 in
  Alcotest.(check bool) "and [x] = x" true (C.and_ b [ x ] == x);
  Alcotest.(check bool) "or [x] = x" true (C.or_ b [ x ] == x)

let test_gate_validation () =
  let b = C.builder ~num_inputs:2 () in
  let x = C.input b 0 and y = C.input b 1 in
  Alcotest.check_raises "not arity"
    (Invalid_argument "Circuit.gate: Not takes exactly one argument") (fun () ->
      ignore (C.gate b C.Not [ x; y ]));
  Alcotest.check_raises "empty fan-in" (Invalid_argument "Circuit.gate: empty fan-in")
    (fun () -> ignore (C.and_ b []));
  Alcotest.check_raises "input range" (Invalid_argument "Circuit.input: out of range")
    (fun () -> ignore (C.input b 2))

let test_constants () =
  let b = C.builder ~num_inputs:1 () in
  let x = C.input b 0 in
  let c = C.finish b ~name:"c" (C.and_ b [ x; C.const b true ]) in
  Alcotest.(check bool) "x & 1 at x=1" true (eval_mask c 1);
  Alcotest.(check bool) "x & 1 at x=0" false (eval_mask c 0)

(* ------------------------------------------------------------------ *)
(* Threshold gates                                                     *)
(* ------------------------------------------------------------------ *)

let popcount mask =
  let rec loop m acc = if m = 0 then acc else loop (m land (m - 1)) (acc + 1) in
  loop mask 0

let test_at_least_matches_counting () =
  let n = 6 in
  for k = 0 to n + 1 do
    let b = C.builder ~num_inputs:n () in
    let xs = List.init n (C.input b) in
    let circuit = C.finish b ~name:"th" (C.at_least b k xs) in
    for mask = 0 to (1 lsl n) - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "atleast %d of %d, mask %d" k n mask)
        (popcount mask >= k) (eval_mask circuit mask)
    done
  done

let test_at_most_exactly () =
  let n = 5 in
  for k = 0 to n do
    let b = C.builder ~num_inputs:n () in
    let xs = List.init n (C.input b) in
    let am = C.finish b ~name:"am" (C.at_most b k xs) in
    let ex = C.finish b ~name:"ex" (C.exactly b k xs) in
    for mask = 0 to (1 lsl n) - 1 do
      Alcotest.(check bool) "atmost" (popcount mask <= k) (eval_mask am mask);
      Alcotest.(check bool) "exactly" (popcount mask = k) (eval_mask ex mask)
    done
  done

let test_at_least_gate_count_linear () =
  (* The DP synthesis must stay O(k·n) gates, not exponential. *)
  let n = 40 and k = 20 in
  let b = C.builder ~num_inputs:n () in
  let xs = List.init n (C.input b) in
  let circuit = C.finish b ~name:"big-th" (C.at_least b k xs) in
  Alcotest.(check bool) "gate count bounded" true (C.gate_count circuit <= 2 * k * n)

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

let test_substitute () =
  (* F = x0 & x1; substitute x0 -> y0 | y1, x1 -> !y2 *)
  let bf = C.builder ~num_inputs:2 () in
  let f = C.finish bf ~name:"f" (C.and_ bf [ C.input bf 0; C.input bf 1 ]) in
  let b = C.builder ~num_inputs:3 () in
  let subst = function
    | 0 -> C.or_ b [ C.input b 0; C.input b 1 ]
    | _ -> C.not_ b (C.input b 2)
  in
  let g = C.finish b ~name:"g" (C.substitute b f ~subst) in
  for mask = 0 to 7 do
    let y i = (mask lsr i) land 1 = 1 in
    let expected = (y 0 || y 1) && not (y 2) in
    Alcotest.(check bool) "substituted semantics" expected (eval_mask g mask)
  done

(* ------------------------------------------------------------------ *)
(* Traversals and statistics                                           *)
(* ------------------------------------------------------------------ *)

let test_counts_and_inputs_used () =
  let b = C.builder ~num_inputs:4 () in
  let x0 = C.input b 0 and x2 = C.input b 2 in
  let g = C.or_ b [ C.and_ b [ x0; x2 ]; x0 ] in
  let circuit = C.finish b ~name:"c" g in
  Alcotest.(check int) "gate count" 2 (C.gate_count circuit);
  Alcotest.(check int) "node count" 4 (C.node_count circuit);
  Alcotest.(check (list int)) "inputs used" [ 0; 2 ] (C.inputs_used circuit)

let test_postorder_children_first () =
  let b = C.builder ~num_inputs:2 () in
  let x = C.input b 0 and y = C.input b 1 in
  let inner = C.and_ b [ x; y ] in
  let outer = C.or_ b [ inner; x ] in
  let circuit = C.finish b ~name:"c" outer in
  let order = C.postorder circuit in
  let pos id =
    let rec find i = function
      | [] -> -1
      | (n : C.node) :: rest -> if n.C.id = id then i else find (i + 1) rest
    in
    find 0 order
  in
  Alcotest.(check bool) "inner before outer" true (pos inner.C.id < pos outer.C.id);
  Alcotest.(check bool) "x before inner" true (pos x.C.id < pos inner.C.id);
  Alcotest.(check int) "all nodes once" (C.node_count circuit) (List.length order)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_to_dot_mentions_nodes () =
  let circuit = Parse.fault_tree ~name:"d" "x0 & !x1" in
  let dot = C.to_dot circuit in
  Alcotest.(check bool) "dot has AND" true (contains_substring dot "AND");
  Alcotest.(check bool) "dot has NOT" true (contains_substring dot "NOT")

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_basic () =
  let c = Parse.fault_tree "x0 & x1 | x2" in
  Alcotest.(check int) "inferred inputs" 3 c.C.num_inputs;
  List.iter
    (fun (mask, expected) ->
      Alcotest.(check bool) (Printf.sprintf "mask %d" mask) expected (eval_mask c mask))
    [ (0b000, false); (0b011, true); (0b100, true); (0b001, false) ]

let test_parse_precedence () =
  (* & binds tighter than | ; ! tightest *)
  let c = Parse.fault_tree "!x0 | x1 & x2" in
  List.iter
    (fun (mask, expected) ->
      Alcotest.(check bool) (Printf.sprintf "mask %d" mask) expected (eval_mask c mask))
    [ (0b000, true); (0b001, false); (0b111, true); (0b011, false); (0b110, true) ]

let test_parse_threshold () =
  let c = Parse.fault_tree "atleast(2; x0, x1, x2)" in
  for mask = 0 to 7 do
    Alcotest.(check bool) "threshold" (popcount mask >= 2) (eval_mask c mask)
  done;
  let c = Parse.fault_tree ~num_inputs:3 "atmost(1; x0, x1, x2)" in
  for mask = 0 to 7 do
    Alcotest.(check bool) "atmost" (popcount mask <= 1) (eval_mask c mask)
  done

let test_parse_xor_consts () =
  let c = Parse.fault_tree ~num_inputs:2 "xor(x0, x1, 1)" in
  for mask = 0 to 3 do
    let parity = (mask lxor (mask lsr 1)) land 1 = 0 in
    Alcotest.(check bool) "xnor via const" parity (eval_mask c mask)
  done

let test_parse_errors () =
  let expect_syntax_error s =
    match Parse.fault_tree s with
    | exception Parse.Syntax_error _ -> ()
    | _ -> Alcotest.failf "expected syntax error on %S" s
  in
  List.iter expect_syntax_error
    [ "x0 &"; "(x0"; "x0 x1"; "atleast(2 x0)"; "foo(x0)"; ""; "x0 | | x1"; "!" ]

let test_parse_explicit_inputs () =
  let c = Parse.fault_tree ~num_inputs:10 "x0" in
  Alcotest.(check int) "explicit inputs" 10 c.C.num_inputs

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* Random circuit expressions as strings fed to the parser, evaluated two
   ways: through Circuit.eval and through a reference interpreter. *)
type rexpr =
  | RVar of int
  | RNot of rexpr
  | RAnd of rexpr * rexpr
  | ROr of rexpr * rexpr
  | RXor of rexpr * rexpr

let rec rexpr_to_string = function
  | RVar i -> Printf.sprintf "x%d" i
  | RNot e -> Printf.sprintf "!(%s)" (rexpr_to_string e)
  | RAnd (a, b) -> Printf.sprintf "(%s & %s)" (rexpr_to_string a) (rexpr_to_string b)
  | ROr (a, b) -> Printf.sprintf "(%s | %s)" (rexpr_to_string a) (rexpr_to_string b)
  | RXor (a, b) -> Printf.sprintf "xor(%s, %s)" (rexpr_to_string a) (rexpr_to_string b)

let rec rexpr_eval env = function
  | RVar i -> env i
  | RNot e -> not (rexpr_eval env e)
  | RAnd (a, b) -> rexpr_eval env a && rexpr_eval env b
  | ROr (a, b) -> rexpr_eval env a || rexpr_eval env b
  | RXor (a, b) -> rexpr_eval env a <> rexpr_eval env b

let gen_rexpr num_vars =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fix (fun self size ->
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

let arb_rexpr num_vars = QCheck.make ~print:rexpr_to_string (gen_rexpr num_vars)

let prop_parser_matches_interpreter =
  QCheck.Test.make ~name:"parsed circuit equals reference interpreter" ~count:300
    (arb_rexpr 4)
    (fun e ->
      let circuit = Parse.fault_tree ~num_inputs:4 (rexpr_to_string e) in
      List.for_all
        (fun mask ->
          let env i = (mask lsr i) land 1 = 1 in
          rexpr_eval env e = eval_mask circuit mask)
        (List.init 16 Fun.id))

let prop_hash_consing_keeps_semantics =
  QCheck.Test.make ~name:"building the same expression twice shares the root" ~count:100
    (arb_rexpr 3)
    (fun e ->
      let s = rexpr_to_string e in
      let c1 = Parse.fault_tree ~num_inputs:3 s in
      let c2 = Parse.fault_tree ~num_inputs:3 s in
      (* separate builders: roots differ, semantics agree *)
      List.for_all (fun mask -> eval_mask c1 mask = eval_mask c2 mask) (List.init 8 Fun.id))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_logic"
    [
      ( "gates",
        [
          Alcotest.test_case "binary semantics" `Quick test_gates_semantics;
          Alcotest.test_case "n-ary gates" `Quick test_nary_gates;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "singleton collapse" `Quick test_singleton_gate_collapses;
          Alcotest.test_case "validation" `Quick test_gate_validation;
          Alcotest.test_case "constants" `Quick test_constants;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "at_least = counting" `Quick test_at_least_matches_counting;
          Alcotest.test_case "at_most / exactly" `Quick test_at_most_exactly;
          Alcotest.test_case "linear gate count" `Quick test_at_least_gate_count_linear;
        ] );
      ("substitute", [ Alcotest.test_case "semantics" `Quick test_substitute ]);
      ( "traversal",
        [
          Alcotest.test_case "counts and inputs_used" `Quick test_counts_and_inputs_used;
          Alcotest.test_case "postorder" `Quick test_postorder_children_first;
          Alcotest.test_case "dot export" `Quick test_to_dot_mentions_nodes;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "threshold" `Quick test_parse_threshold;
          Alcotest.test_case "xor and constants" `Quick test_parse_xor_consts;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "explicit inputs" `Quick test_parse_explicit_inputs;
        ] );
      qsuite "props" [ prop_parser_matches_interpreter; prop_hash_consing_keeps_semantics ];
    ]
