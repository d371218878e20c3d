(* Tests for Socy_bdd: ROBDD algebra, canonicity against truth tables,
   cofactors/quantifiers, probability, reference counting, garbage
   collection, node limits, and the circuit compiler. *)

module M = Socy_bdd.Manager
module Compile = Socy_bdd.Compile
module C = Socy_logic.Circuit
module Parse = Socy_logic.Parse

let with_manager ?node_limit n f = f (M.create ?node_limit ~num_vars:n ())

(* Truth table of a BDD over the manager's variables, on all 2^n
   assignments (bit v of the mask = value of variable v). *)
let semantics m node n =
  List.init (1 lsl n) (fun mask -> M.eval m node (fun v -> (mask lsr v) land 1 = 1))

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)
(* ------------------------------------------------------------------ *)

let test_terminals () =
  with_manager 2 (fun m ->
      Alcotest.(check bool) "zero is terminal" true (M.is_terminal M.zero);
      Alcotest.(check bool) "one is terminal" true (M.is_terminal M.one);
      Alcotest.(check int) "terminal level" 2 (M.level m M.zero);
      Alcotest.(check bool) "eval zero" false (M.eval m M.zero (fun _ -> true));
      Alcotest.(check bool) "eval one" true (M.eval m M.one (fun _ -> false)))

let test_var_semantics () =
  with_manager 3 (fun m ->
      let x1 = M.var m 1 in
      Alcotest.(check bool) "var true" true (M.eval m x1 (fun v -> v = 1));
      Alcotest.(check bool) "var false" false (M.eval m x1 (fun v -> v <> 1));
      let nx1 = M.nvar m 1 in
      Alcotest.(check bool) "nvar" true (M.eval m nx1 (fun v -> v <> 1));
      (* single-sink convention: the node for x1 plus the shared sink *)
      Alcotest.(check int) "var size" 2 (M.size m x1))

let test_structure_access () =
  with_manager 2 (fun m ->
      let x0 = M.var m 0 in
      Alcotest.(check int) "level" 0 (M.level m x0);
      Alcotest.(check int) "low" M.zero (M.low m x0);
      Alcotest.(check int) "high" M.one (M.high m x0);
      Alcotest.check_raises "low of terminal"
        (Invalid_argument "Manager.low: terminal node") (fun () ->
          ignore (M.low m M.zero)))

let test_canonicity_same_function_same_node () =
  with_manager 3 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let ab = M.and_ m a b in
      let ba = M.and_ m b a in
      Alcotest.(check int) "and commutes to same node" ab ba;
      (* De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b *)
      let lhs = M.not_ m ab in
      let na = M.not_ m a and nb = M.not_ m b in
      let rhs = M.or_ m na nb in
      Alcotest.(check int) "de morgan" lhs rhs)

let test_ite_identities () =
  with_manager 4 (fun m ->
      let f = M.var m 0 and g = M.var m 1 and h = M.var m 2 in
      Alcotest.(check int) "ite(1,g,h) = g" g (M.ite m M.one g h);
      Alcotest.(check int) "ite(0,g,h) = h" h (M.ite m M.zero g h);
      Alcotest.(check int) "ite(f,g,g) = g" g (M.ite m f g g);
      Alcotest.(check int) "ite(f,1,0) = f" f (M.ite m f M.one M.zero);
      Alcotest.(check int) "ite(f,f,h) = ite(f,1,h)" (M.ite m f M.one h) (M.ite m f f h);
      Alcotest.(check int) "ite(f,g,f) = ite(f,g,0)" (M.ite m f g M.zero) (M.ite m f g f);
      let nf = M.not_ m f in
      Alcotest.(check int) "double negation" f (M.not_ m nf))

let test_xor () =
  with_manager 2 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let x = M.xor_ m a b in
      Alcotest.(check (list bool)) "xor table" [ false; true; true; false ]
        (semantics m x 2))

(* ------------------------------------------------------------------ *)
(* Counting and probability                                            *)
(* ------------------------------------------------------------------ *)

let test_support () =
  with_manager 4 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 3) in
      Alcotest.(check (list int)) "support" [ 0; 3 ] (M.support m f))

let test_probability () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      let p = function 0 -> 0.3 | _ -> 0.5 in
      Alcotest.(check (float 1e-12)) "and prob" 0.15 (M.probability m f ~p);
      let g = M.or_ m (M.var m 0) (M.var m 1) in
      Alcotest.(check (float 1e-12)) "or prob" (0.3 +. 0.5 -. 0.15)
        (M.probability m g ~p))

let test_size () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      Alcotest.(check int) "size of and" 3 (M.size m f);
      Alcotest.(check int) "size zero" 1 (M.size m M.zero);
      let g = M.or_ m f (M.not_ m f) in
      Alcotest.(check int) "size tautology" 1 (M.size m g);
      (* the standalone x0 node (x0 ? 1 : 0) differs from f's root
         (x0 ? x1-node : 0): 3 nonterminals + the single shared sink *)
      Alcotest.(check int) "size_multi shares" 4 (M.size_multi m [ f; M.var m 0 ]))

(* ------------------------------------------------------------------ *)
(* Reference counting and GC                                           *)
(* ------------------------------------------------------------------ *)

let test_refcount_kill_resurrect () =
  with_manager 4 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let f = M.and_ m a b in
      let alive_before = M.alive m in
      M.deref m f;
      Alcotest.(check int) "killing a root releases it" (alive_before - 1) (M.alive m);
      Alcotest.(check int) "dead count" 1 (M.dead m);
      let f2 = M.and_ m a b in
      Alcotest.(check int) "resurrected same node" f f2;
      Alcotest.(check int) "alive restored" alive_before (M.alive m);
      Alcotest.(check int) "no dead" 0 (M.dead m))

let test_deref_underflow () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      M.deref m f;
      Alcotest.check_raises "underflow"
        (Invalid_argument "Manager.deref: reference count underflow") (fun () ->
          M.deref m f))

let test_collect_reclaims_and_preserves () =
  with_manager 4 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let keep = M.or_ m a b in
      let junk = M.and_ m a b in
      M.deref m junk;
      Alcotest.(check bool) "some dead" true (M.dead m > 0);
      M.collect m;
      Alcotest.(check int) "no dead after collect" 0 (M.dead m);
      Alcotest.(check int) "gc ran" 1 (M.gc_count m);
      Alcotest.(check (list bool)) "keep semantics" [ false; true; true; true ]
        (semantics m keep 2);
      (* reclaimed slots are reusable *)
      let j2 = M.and_ m a b in
      Alcotest.(check (list bool)) "rebuilt junk semantics"
        [ false; false; false; true ] (semantics m j2 2))

let test_peak_tracking () =
  with_manager 6 (fun m ->
      let parity =
        List.fold_left
          (fun acc v ->
            let x = M.var m v in
            let nxt = M.xor_ m acc x in
            M.deref m acc;
            M.deref m x;
            nxt)
          M.zero [ 0; 1; 2; 3; 4; 5 ]
      in
      Alcotest.(check bool) "peak >= alive" true (M.peak_alive m >= M.alive m);
      Alcotest.(check bool) "peak >= final size" true
        (M.peak_alive m >= M.size m parity - 1);
      M.reset_peak m;
      Alcotest.(check int) "reset peak" (M.alive m) (M.peak_alive m))

let test_node_limit () =
  let m = M.create ~node_limit:10 ~num_vars:16 () in
  let build () =
    let acc = ref M.zero in
    for v = 0 to 15 do
      let x = M.var m v in
      acc := M.xor_ m !acc x
    done;
    !acc
  in
  Alcotest.check_raises "limit" M.Node_limit_exceeded (fun () -> ignore (build ()))

let test_to_dot () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      let dot = M.to_dot m f in
      Alcotest.(check bool) "mentions x0" true
        (let rec has i =
           i + 2 <= String.length dot && (String.sub dot i 2 = "x0" || has (i + 1))
         in
         has 0))

(* ------------------------------------------------------------------ *)
(* Canonicity against truth tables (property)                          *)
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

let rec rexpr_eval env = function
  | RVar i -> env i
  | RNot e -> not (rexpr_eval env e)
  | RAnd (a, b) -> rexpr_eval env a && rexpr_eval env b
  | ROr (a, b) -> rexpr_eval env a || rexpr_eval env b
  | RXor (a, b) -> rexpr_eval env a <> rexpr_eval env b

let rec rexpr_build m = function
  | RVar i -> M.var m i
  | RNot e -> M.not_ m (rexpr_build m e)
  | RAnd (a, b) -> M.and_ m (rexpr_build m a) (rexpr_build m b)
  | ROr (a, b) -> M.or_ m (rexpr_build m a) (rexpr_build m b)
  | RXor (a, b) -> M.xor_ m (rexpr_build m a) (rexpr_build m b)

let gen_rexpr num_vars =
  QCheck.Gen.(
    sized_size (int_bound 8)
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

let arb_rexpr n = QCheck.make ~print:rexpr_print (gen_rexpr n)

let nvars_prop = 5

let prop_bdd_matches_semantics =
  QCheck.Test.make ~name:"BDD evaluation equals formula semantics" ~count:300
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let node = rexpr_build m e in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          rexpr_eval env e = M.eval m node env)
        (List.init (1 lsl nvars_prop) Fun.id))

let prop_canonicity =
  QCheck.Test.make ~name:"equal truth tables <=> equal nodes" ~count:300
    QCheck.(pair (arb_rexpr nvars_prop) (arb_rexpr nvars_prop))
    (fun (e1, e2) ->
      let m = M.create ~num_vars:nvars_prop () in
      let n1 = rexpr_build m e1 and n2 = rexpr_build m e2 in
      let equal_tables =
        List.for_all
          (fun mask ->
            let env v = (mask lsr v) land 1 = 1 in
            rexpr_eval env e1 = rexpr_eval env e2)
          (List.init (1 lsl nvars_prop) Fun.id)
      in
      (n1 = n2) = equal_tables)

let prop_sat_fraction_counts =
  QCheck.Test.make ~name:"sat_fraction equals satisfying-assignment count" ~count:200
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let node = rexpr_build m e in
      let count =
        List.fold_left
          (fun acc mask ->
            let env v = (mask lsr v) land 1 = 1 in
            if rexpr_eval env e then acc + 1 else acc)
          0
          (List.init (1 lsl nvars_prop) Fun.id)
      in
      abs_float
        (M.probability m node ~p:(fun _ -> 0.5)
        -. (float_of_int count /. float_of_int (1 lsl nvars_prop)))
      < 1e-12)

let prop_refcounts_survive_gc =
  QCheck.Test.make ~name:"semantics preserved across deref of temporaries + GC"
    ~count:100
    QCheck.(pair (arb_rexpr nvars_prop) (arb_rexpr nvars_prop))
    (fun (e1, e2) ->
      let m = M.create ~num_vars:nvars_prop () in
      let keep = rexpr_build m e1 in
      let junk = rexpr_build m e2 in
      M.deref m junk;
      M.collect m;
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          rexpr_eval env e1 = M.eval m keep env)
        (List.init (1 lsl nvars_prop) Fun.id))

(* ------------------------------------------------------------------ *)
(* Complement-edge canonicity                                          *)
(* ------------------------------------------------------------------ *)

let prop_no_complemented_else_edge =
  QCheck.Test.make ~name:"no reachable node stores a complemented else-edge"
    ~count:300 (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let node = rexpr_build m e in
      let ok = ref true in
      M.iter_reachable m node (fun n ->
          (* iter_reachable yields regular handles, so [M.low] here is the
             stored else-edge itself *)
          if (not (M.is_terminal n)) && M.is_complemented (M.low m n) then
            ok := false);
      !ok)

let prop_double_negation_physical =
  QCheck.Test.make ~name:"not_ (not_ f) is physically f" ~count:300
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let f = rexpr_build m e in
      let nf = M.not_ m f in
      let nnf = M.not_ m nf in
      nnf = f && M.regular nf = M.regular f && nf = f lxor 1)

(* 8 variables as the issue asks: wide enough that the ITE normalization
   rules (operand folding, commutative swaps, output negation) all fire. *)
let nvars_ite = 8

let prop_ite_truth_table =
  QCheck.Test.make ~name:"ite agrees with truth-table semantics on 8 vars"
    ~count:150
    QCheck.(triple (arb_rexpr nvars_ite) (arb_rexpr nvars_ite) (arb_rexpr nvars_ite))
    (fun (ef, eg, eh) ->
      let m = M.create ~num_vars:nvars_ite () in
      let f = rexpr_build m ef
      and g = rexpr_build m eg
      and h = rexpr_build m eh in
      let r = M.ite m f g h in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          let expect =
            if rexpr_eval env ef then rexpr_eval env eg else rexpr_eval env eh
          in
          expect = M.eval m r env)
        (List.init (1 lsl nvars_ite) Fun.id))

let prop_probability_complement_exact =
  QCheck.Test.make ~name:"P(f) + P(not f) = 1 exactly" ~count:300
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let f = rexpr_build m e in
      let nf = M.not_ m f in
      let p v = 0.05 +. (0.13 *. float_of_int v) in
      (* exact float equality on purpose: both polarities read one stored
         value per slot, so the sum is v +. (1. -. v) = 1. bit-exactly *)
      M.probability m f ~p +. M.probability m nf ~p = 1.0)

(* ------------------------------------------------------------------ *)
(* Circuit compiler                                                    *)
(* ------------------------------------------------------------------ *)

let test_compile_simple () =
  let circuit = Parse.fault_tree ~num_inputs:3 "x0 & x1 | !x2" in
  let m = M.create ~num_vars:3 () in
  let root, stats = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  List.iter
    (fun mask ->
      let env v = (mask lsr v) land 1 = 1 in
      Alcotest.(check bool)
        (Printf.sprintf "mask %d" mask)
        ((env 0 && env 1) || not (env 2))
        (M.eval m root env))
    (List.init 8 Fun.id);
  Alcotest.(check int) "final size consistent" (M.size m root) stats.Compile.final_size;
  Alcotest.(check bool) "peak >= final" true
    (stats.Compile.peak_nodes >= stats.Compile.final_size - 1)

let test_compile_var_permutation () =
  let circuit = Parse.fault_tree ~num_inputs:3 "x0 | x1 & x2" in
  let m = M.create ~num_vars:3 () in
  let perm = [| 2; 0; 1 |] in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:(fun i -> perm.(i)) in
  List.iter
    (fun mask ->
      let input_env i = (mask lsr i) land 1 = 1 in
      let bdd_env v =
        input_env (if perm.(0) = v then 0 else if perm.(1) = v then 1 else 2)
      in
      Alcotest.(check bool)
        (Printf.sprintf "mask %d" mask)
        (input_env 0 || (input_env 1 && input_env 2))
        (M.eval m root bdd_env))
    (List.init 8 Fun.id)

let test_compile_releases_intermediates () =
  let circuit = Parse.fault_tree ~num_inputs:6 "atleast(3; x0, x1, x2, x3, x4, x5)" in
  let m = M.create ~num_vars:6 () in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  M.collect m;
  (* size counts the immortal sink; alive counts only nonterminals *)
  Alcotest.(check int) "alive = root cone" (M.size m root - 1) (M.alive m)

let test_compile_constant_output () =
  let circuit = Parse.fault_tree ~num_inputs:1 "x0 & !x0" in
  let m = M.create ~num_vars:1 () in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  Alcotest.(check int) "contradiction compiles to zero" M.zero root

let circuit_of_rexpr num_inputs e =
  let b = C.builder ~num_inputs () in
  let rec build = function
    | RVar i -> C.input b i
    | RNot x -> C.not_ b (build x)
    | RAnd (x, y) -> C.and_ b [ build x; build y ]
    | ROr (x, y) -> C.or_ b [ build x; build y ]
    | RXor (x, y) -> C.xor_ b [ build x; build y ]
  in
  C.finish b ~name:"prop" (build e)

let prop_compile_matches_interpreter =
  QCheck.Test.make ~name:"compiled circuit equals interpreter" ~count:200
    (arb_rexpr nvars_prop)
    (fun e ->
      let circuit = circuit_of_rexpr nvars_prop e in
      let m = M.create ~num_vars:nvars_prop () in
      let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          rexpr_eval env e = M.eval m root env)
        (List.init (1 lsl nvars_prop) Fun.id))

(* ------------------------------------------------------------------ *)
(* Walks against the hash-table reference                              *)
(* ------------------------------------------------------------------ *)

(* The hash-table walks that the slot-indexed ones replaced, rebuilt on
   the public accessors ([M.low]/[M.high] of a regular handle are the
   stored edges). The engine's walks must match them exactly: the same
   visit sequence, the same counts, the same probability bits. *)
module Ref_walk = struct
  let iter_reachable m n f =
    let seen = Hashtbl.create 64 in
    let stack = ref [] in
    let visit h =
      let r = h land -2 in
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.add seen r ();
        if r = 0 then f r else stack := (r, ref 0) :: !stack
      end
    in
    visit n;
    let rec drain () =
      match !stack with
      | [] -> ()
      | (x, j) :: rest ->
          (match !j with
          | 0 ->
              j := 1;
              visit (M.low m x)
          | 1 ->
              j := 2;
              visit (M.high m x)
          | _ ->
              stack := rest;
              f x);
          drain ()
    in
    drain ()

  let size m n =
    let c = ref 0 in
    iter_reachable m n (fun _ -> incr c);
    !c

  let size_multi m roots =
    let seen = Hashtbl.create 64 in
    let stack = ref [] in
    let visit h =
      let r = h land -2 in
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.add seen r ();
        if r <> 0 then stack := r :: !stack
      end
    in
    let rec drain () =
      match !stack with
      | [] -> ()
      | x :: rest ->
          stack := rest;
          visit (M.low m x);
          visit (M.high m x);
          drain ()
    in
    List.iter (fun n -> visit n; drain ()) roots;
    Hashtbl.length seen

  (* Slots bucketed by level, valued deepest level first. *)
  let probability m n ~p =
    if n = M.zero then 0.0
    else if n = M.one then 1.0
    else begin
      let buckets = Array.make (M.num_vars m) [] in
      let seen = Hashtbl.create 64 in
      let root_slot = n lsr 1 in
      Hashtbl.add seen root_slot ();
      let stack = ref [ root_slot ] in
      let rec drain () =
        match !stack with
        | [] -> ()
        | x :: rest ->
            stack := rest;
            let lv = M.level m (x lsl 1) in
            buckets.(lv) <- x :: buckets.(lv);
            let push c =
              let s = c lsr 1 in
              if s > 0 && not (Hashtbl.mem seen s) then begin
                Hashtbl.add seen s ();
                stack := s :: !stack
              end
            in
            push (M.low m (x lsl 1));
            push (M.high m (x lsl 1));
            drain ()
      in
      drain ();
      let value = Hashtbl.create 64 in
      let handle_value h =
        if h = M.one then 1.0
        else if h = M.zero then 0.0
        else
          let v = Hashtbl.find value (h lsr 1) in
          if h land 1 = 1 then 1.0 -. v else v
      in
      for lv = M.num_vars m - 1 downto 0 do
        List.iter
          (fun x ->
            let pv = p (M.var_at_level m lv) in
            Hashtbl.replace value x
              ((pv *. handle_value (M.high m (x lsl 1)))
              +. ((1.0 -. pv) *. handle_value (M.low m (x lsl 1)))))
          buckets.(lv)
      done;
      handle_value n
    end
end

let prop_walks_match_reference =
  QCheck.Test.make ~name:"walks match the hash-table reference" ~count:200
    QCheck.(triple (arb_rexpr nvars_ite) (arb_rexpr nvars_ite) (arb_rexpr nvars_ite))
    (fun (e1, e2, e3) ->
      let m = M.create ~num_vars:nvars_ite () in
      let compile e =
        fst
          (Compile.of_circuit m (circuit_of_rexpr nvars_ite e)
             ~var_of_input:Fun.id)
      in
      let f = compile e1 in
      (* [e2]'s nodes are collected before [e3] is compiled, so [e3] takes
         slots from the free list *)
      let junk = compile e2 in
      M.deref m junk;
      M.collect m;
      let g = compile e3 in
      let visits walk n =
        let l = ref [] in
        walk m n (fun x -> l := x :: !l);
        !l
      in
      let p v = 0.03 +. (0.117 *. float_of_int v) in
      let bits x = Int64.bits_of_float x in
      List.for_all
        (fun n ->
          visits M.iter_reachable n = visits Ref_walk.iter_reachable n
          && M.size m n = Ref_walk.size m n
          && bits (M.probability m n ~p) = bits (Ref_walk.probability m n ~p))
        [ f; g; M.not_ m g; M.one; M.zero ]
      && M.size_multi m [ f; g ] = Ref_walk.size_multi m [ f; g ]
      && M.size_multi m [ g; M.not_ m f; M.zero ]
         = Ref_walk.size_multi m [ g; M.not_ m f; M.zero ])

(* ------------------------------------------------------------------ *)
(* Minimal cut sets                                                    *)
(* ------------------------------------------------------------------ *)

module Cutsets = Socy_bdd.Cutsets

let test_cutsets_basic () =
  let sets = Cutsets.of_circuit (Parse.fault_tree "x0 & x1 | x2") in
  Alcotest.(check (list (list int))) "and-or" [ [ 2 ]; [ 0; 1 ] ] sets;
  let sets = Cutsets.of_circuit (Parse.fault_tree "atleast(2; x0, x1, x2)") in
  Alcotest.(check (list (list int))) "2-of-3" [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ] sets;
  let sets = Cutsets.of_circuit (Parse.fault_tree "x0 | x0 & x1") in
  Alcotest.(check (list (list int))) "absorption" [ [ 0 ] ] sets

let test_cutsets_terminals () =
  let m = M.create ~num_vars:3 () in
  Alcotest.(check int) "zero has none" 0 (Cutsets.count m M.zero);
  Alcotest.(check int) "one has the empty cut" 1 (Cutsets.count m M.one);
  Alcotest.(check (list (list int))) "one enumerates empty" [ [] ]
    (Cutsets.enumerate m M.one)

let test_cutsets_count_and_limit () =
  let circuit = Parse.fault_tree "atleast(3; x0, x1, x2, x3, x4, x5)" in
  let m = M.create ~num_vars:6 () in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  Alcotest.(check int) "C(6,3)" 20 (Cutsets.count m root);
  Alcotest.(check int) "limit respected" 5
    (List.length (Cutsets.enumerate ~limit:5 m root))

(* Brute-force minimal true points of a monotone function. *)
let brute_minimal_cuts circuit n =
  let eval mask = C.eval circuit (fun i -> (mask lsr i) land 1 = 1) in
  let cuts = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    if eval mask then begin
      let minimal = ref true in
      for i = 0 to n - 1 do
        if (mask lsr i) land 1 = 1 && eval (mask land lnot (1 lsl i)) then
          minimal := false
      done;
      if !minimal then begin
        let set = List.filter (fun i -> (mask lsr i) land 1 = 1) (List.init n Fun.id) in
        cuts := set :: !cuts
      end
    end
  done;
  List.sort
    (fun a b ->
      let c = compare (List.length a) (List.length b) in
      if c <> 0 then c else compare a b)
    !cuts

(* Random monotone circuits: AND/OR over positive literals. *)
type mono = MVar of int | MAndM of mono * mono | MOrM of mono * mono

let rec mono_print = function
  | MVar i -> Printf.sprintf "x%d" i
  | MAndM (a, b) -> Printf.sprintf "(%s&%s)" (mono_print a) (mono_print b)
  | MOrM (a, b) -> Printf.sprintf "(%s|%s)" (mono_print a) (mono_print b)

let gen_mono num_vars =
  QCheck.Gen.(
    sized_size (int_bound 8)
    @@ fix (fun self size ->
           if size <= 0 then map (fun i -> MVar i) (int_bound (num_vars - 1))
           else
             frequency
               [
                 (1, map (fun i -> MVar i) (int_bound (num_vars - 1)));
                 (2, map2 (fun a b -> MAndM (a, b)) (self (size / 2)) (self (size / 2)));
                 (2, map2 (fun a b -> MOrM (a, b)) (self (size / 2)) (self (size / 2)));
               ]))

let prop_cutsets_match_brute_force =
  QCheck.Test.make ~name:"minimal cut sets equal brute-force minimal points"
    ~count:200
    (QCheck.make ~print:mono_print (gen_mono 6))
    (fun e ->
      let circuit = Parse.fault_tree ~num_inputs:6 (mono_print e) in
      Cutsets.of_circuit circuit = brute_minimal_cuts circuit 6)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Stack safety on deep diagrams, delta publishing                     *)
(* ------------------------------------------------------------------ *)

(* Conjunction x0 & … & x(n-1) built bottom-up, so each [and_] is O(1)
   while the result is an n-node-deep chain: any traversal that recursed
   on diagram depth would overflow the OCaml stack here. *)
let deep_chain m n =
  let chain = ref M.one in
  for v = n - 1 downto 0 do
    let x = M.var m v in
    let nxt = M.and_ m x !chain in
    M.deref m x;
    M.deref m !chain;
    chain := nxt
  done;
  !chain

let deep_n = 220_000

let test_deep_chain_ops () =
  with_manager deep_n (fun m ->
      let chain = deep_chain m deep_n in
      (* iter_reachable (via size/support) over the whole chain *)
      Alcotest.(check int) "size" (deep_n + 1) (M.size m chain);
      Alcotest.(check int) "support" deep_n (List.length (M.support m chain));
      (* not_ only flips the complement bit: no ITE or AND runs here *)
      let neg = M.not_ m chain in
      Alcotest.(check bool) "chain eval" true (M.eval m chain (fun _ -> true));
      Alcotest.(check bool) "neg eval" false (M.eval m neg (fun _ -> true));
      (* ¬chain shares every physical node with chain under complement edges *)
      Alcotest.(check int) "neg size" (deep_n + 1) (M.size m neg);
      (* probability: all-true assignment has mass 1 *)
      Alcotest.(check (float 1e-12)) "probability" 1.0
        (M.probability m chain ~p:(fun _ -> 1.0));
      (* deref cascades the kill down the whole neg cone *)
      M.deref m neg;
      M.deref m chain)

(* The recursive APPLY cores at full depth: each call below meets the
   chain's nodes one level at a time down to x(n-1), missing the cache at
   every level above it, so the recursion is as deep as the chain. *)
let deep_apply_ops m n =
  let chain = deep_chain m n and x = M.var m (n - 1) in
  let misses () = (M.stats m).M.cache_misses in
  let descends what f =
    let before = misses () in
    let r = f () in
    let descended = misses () - before in
    if descended < n - 1 then
      Alcotest.failf "%s missed %d times on a %d-deep chain" what descended n;
    r
  in
  (* x(n-1) is a conjunct: chain ∧ x = chain, chain ∨ x = x *)
  let a = descends "and_" (fun () -> M.and_ m chain x) in
  Alcotest.(check int) "and_ = chain" chain a;
  let o = descends "or_" (fun () -> M.or_ m chain x) in
  Alcotest.(check int) "or_ = x" x o;
  (* chain ⊕ x = x ∧ ¬(x0 ∧ … ∧ x(n-2)): one ITE call down the chain *)
  let p = descends "xor_" (fun () -> M.xor_ m chain x) in
  Alcotest.(check bool) "xor_ all set" false (M.eval m p (fun _ -> true));
  Alcotest.(check bool) "xor_ x0 clear" true (M.eval m p (fun v -> v > 0));
  Alcotest.(check int) "xor_ size" (n + 1) (M.size m p);
  List.iter (M.deref m) [ a; o; p; x; chain ]

let test_deep_apply_cores () = with_manager deep_n (fun m -> deep_apply_ops m deep_n)

(* The same, in two team tasks, one of them on a worker domain of the
   team: a serve executor's domain runs builds too. *)
let test_deep_apply_cores_in_team () =
  Two_domains.run (fun _ -> with_manager deep_n (fun m -> deep_apply_ops m deep_n))

(* Runs [f] with a fresh, enabled observability registry. *)
let with_obs f =
  let module Obs = Socy_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_publish_obs_delta () =
  let module Obs = Socy_obs.Obs in
  with_obs (fun () ->
      let counter name = Obs.counter_value (Obs.counter name) in
      with_manager 6 (fun m ->
          let x = M.var m 0 and y = M.var m 1 in
          let f = M.and_ m x y in
          M.publish_obs m;
          M.publish_obs m;
          (* Publishing twice must not double-count: the registry still
             equals the manager's own totals. *)
          let s = M.stats m in
          Alcotest.(check int) "created not doubled" s.M.created
            (counter "bdd.created");
          Alcotest.(check int) "unique hits not doubled" s.M.unique_hits
            (counter "bdd.unique_hits");
          Alcotest.(check int) "cache misses not doubled" s.M.cache_misses
            (counter "bdd.ite_cache_misses");
          (* More work, then a third publish: only the delta lands. *)
          let g = M.or_ m f x in
          M.publish_obs m;
          let s2 = M.stats m in
          Alcotest.(check int) "created delta" s2.M.created
            (counter "bdd.created");
          Alcotest.(check int) "cache hits delta" s2.M.cache_hits
            (counter "bdd.ite_cache_hits");
          M.deref m g;
          M.deref m f;
          M.deref m x;
          M.deref m y))

(* ------------------------------------------------------------------ *)
(* Computed-cache growth                                               *)
(* ------------------------------------------------------------------ *)

(* The computed-cache line count the last [publish_obs] recorded. *)
let cache_capacity () =
  let module Obs = Socy_obs.Obs in
  (List.assoc "table.occupancy.bdd.cache.capacity" (Obs.snapshot ()).Obs.gauges)
    .Obs.g_last

let test_cache_bits_validated () =
  List.iter
    (fun bits ->
      match M.create ~cache_bits:bits ~num_vars:2 () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "cache_bits = %d accepted" bits)
    [ -1; 0; 29; 63 ];
  ignore (M.create ~cache_bits:1 ~num_vars:2 ());
  ignore (M.create ~cache_bits:28 ~num_vars:2 ())

(* Seeded random circuits: each gate combines two earlier signals, one
   of them among the last few gates, each negated at random. *)
let random_circuit rng ~inputs ~gates =
  let b = C.builder ~num_inputs:inputs () in
  let signals = Array.init inputs (C.input b) in
  let signals = Array.append signals (Array.make gates signals.(0)) in
  for k = inputs to inputs + gates - 1 do
    let literal x = if Random.State.bool rng then C.not_ b x else x in
    let recent = signals.(k - 1 - Random.State.int rng (min 4 (k - inputs + 1))) in
    let any = signals.(Random.State.int rng k) in
    let args = [ literal recent; literal any ] in
    signals.(k) <-
      (match Random.State.int rng 3 with
      | 0 -> C.and_ b args
      | 1 -> C.or_ b args
      | _ -> C.xor_ b args)
  done;
  C.finish b ~name:"random" signals.(inputs + gates - 1)

(* A manager capped at 2^12 lines never grows its cache; one capped at
   2^21 grows with the diagram. Both must build the same diagrams. *)
let test_cache_growth_keeps_results () =
  with_obs (fun () ->
      let inputs = 20 in
      let capped = M.create ~cache_bits:12 ~num_vars:inputs () in
      let grown = M.create ~cache_bits:21 ~num_vars:inputs () in
      let rng = Random.State.make [| 2003 |] in
      let p v = 0.05 +. (0.9 *. float_of_int v /. float_of_int inputs) in
      for i = 1 to 12 do
        let circuit = random_circuit rng ~inputs ~gates:120 in
        let compile m = Compile.of_circuit m circuit ~var_of_input:Fun.id in
        let r12, s12 = compile capped in
        let r21, s21 = compile grown in
        let check what = Alcotest.(check int) (Printf.sprintf "circuit %d %s" i what) in
        check "peak" s12.Compile.peak_nodes s21.Compile.peak_nodes;
        check "final size" s12.Compile.final_size s21.Compile.final_size;
        check "created" s12.Compile.created s21.Compile.created;
        Alcotest.(check int64)
          (Printf.sprintf "circuit %d probability bits" i)
          (Int64.bits_of_float (M.probability capped r12 ~p))
          (Int64.bits_of_float (M.probability grown r21 ~p));
        M.deref capped r12;
        M.deref grown r21
      done;
      M.publish_obs capped;
      Alcotest.(check (float 0.0)) "capped cache keeps 4096 lines" 4096.0
        (cache_capacity ());
      M.publish_obs grown;
      let lines = cache_capacity () in
      Alcotest.(check bool)
        (Printf.sprintf "cache grew past 4096 lines (%.0f)" lines)
        true (lines > 4096.0);
      Alcotest.(check bool) "cache within 2^21 lines" true
        (lines <= float_of_int (1 lsl 21)))

(* The engine counters of one manager after twelve seeded random circuits
   of AND, OR and XOR gates, pinned: XOR runs ITE, so these follow the
   order of every ITE and AND step, where the Table 4 circuits, all AND
   and OR, exercise only AND. *)
let test_random_circuit_counter_pins () =
  let inputs = 20 in
  let m = M.create ~num_vars:inputs () in
  let rng = Random.State.make [| 2003 |] in
  let size = ref 0 in
  for _ = 1 to 12 do
    let circuit = random_circuit rng ~inputs ~gates:120 in
    let r, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
    size := !size + M.size m r;
    M.deref m r
  done;
  let s = M.stats m in
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("size", 9352);
      ("peak", 530);
      ("created", 79072);
      ("unique_hits", 34449);
      ("cache_hits", 77906);
      ("cache_misses", 122911);
      ("and_or_fast_hits", 24528);
    ]
    [
      ("size", !size);
      ("peak", s.M.peak);
      ("created", s.M.created);
      ("unique_hits", s.M.unique_hits);
      ("cache_hits", s.M.cache_hits);
      ("cache_misses", s.M.cache_misses);
      ("and_or_fast_hits", s.M.and_or_fast_hits);
    ]

(* F = x0 ? x1 : (x1 ? x2 : (x2 ? x3 : ...)), built bottom-up with one
   [ite] per level. *)
let select_chain m n =
  let f = ref (M.var m (n - 1)) in
  for v = n - 2 downto 0 do
    let x = M.var m v and y = M.var m (v + 1) in
    let nxt = M.ite m x y !f in
    List.iter (M.deref m) [ x; y; !f ];
    f := nxt
  done;
  !f

(* Parity of x0 … x(n-1), built bottom-up with one [xor_] per level. *)
let parity_chain m n =
  let p = ref M.zero in
  for v = n - 1 downto 0 do
    let x = M.var m v in
    let nxt = M.xor_ m x !p in
    M.deref m x;
    M.deref m !p;
    p := nxt
  done;
  !p

(* One [and_] call that grows the cache while frames are deep on its
   stack. At each level of F ∧ P the then-branch x(k+1) ∧ ¬P(k+1) creates
   a node, and the else-branch F(k+1) ∧ P(k+1) misses one level deeper,
   so misses and creations interleave all the way down. Building F and P
   leaves about 3n nodes in the store and the cache at 2^18 lines; the
   call adds one node per level on the way down and crosses 2^18 about
   50k levels deep. The same call on a manager capped at 2^12 lines is
   the reference. *)
let test_cache_growth_inside_one_call () =
  with_obs (fun () ->
      let n = 70_000 in
      let build cache_bits =
        let m = M.create ~cache_bits ~num_vars:n () in
        let f = select_chain m n and p = parity_chain m n in
        (m, f, p)
      in
      let m, f, p = build 21 in
      M.publish_obs m;
      let before = cache_capacity () in
      Alcotest.(check bool) "no growth pending before the call" true
        (float_of_int (M.alive m + M.dead m) <= before);
      let r = M.and_ m f p in
      M.publish_obs m;
      let after = cache_capacity () in
      Alcotest.(check bool)
        (Printf.sprintf "cache grew inside the call (%.0f -> %.0f)" before after)
        true (after > before);
      let mc, fc, pc = build 12 in
      let rc = M.and_ mc fc pc in
      Alcotest.(check int) "size" (M.size mc rc) (M.size m r);
      let prob m r = M.probability m r ~p:(fun v -> 0.3 +. (0.4 *. float_of_int (v land 1))) in
      Alcotest.(check int64) "probability bits"
        (Int64.bits_of_float (prob mc rc))
        (Int64.bits_of_float (prob m r));
      (* F = 1 when x0 = x1 = 1; the parity decides *)
      let ones k v = v < k in
      Alcotest.(check bool) "x0 x1 set: even parity" false (M.eval m r (ones 2));
      Alcotest.(check bool) "x0 x1 x2 set: odd parity" true (M.eval m r (ones 3));
      Alcotest.(check bool) "x0 clear, x1 set: F follows x2" false
        (M.eval m r (fun v -> v = 1)))

(* The import target of the parallel path only calls [mk] / [var]: it
   never misses, so its cache keeps its first 4096 lines at any cap. *)
let test_mk_only_manager_keeps_small_cache () =
  with_obs (fun () ->
      let n = 20_000 in
      let m = M.create ~cache_bits:21 ~num_vars:n () in
      let chain = ref M.one in
      for lv = n - 1 downto 0 do
        let nxt = M.mk m lv M.zero !chain in
        M.deref m !chain;
        chain := nxt
      done;
      let x = M.var m 0 in
      Alcotest.(check int) "chain size" (n + 1) (M.size m !chain);
      M.publish_obs m;
      Alcotest.(check (float 0.0)) "cache keeps 4096 lines" 4096.0
        (cache_capacity ());
      M.deref m x;
      M.deref m !chain)

let () =
  Alcotest.run "socy_bdd"
    [
      ( "basics",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "structure access" `Quick test_structure_access;
          Alcotest.test_case "canonicity" `Quick test_canonicity_same_function_same_node;
          Alcotest.test_case "ite identities" `Quick test_ite_identities;
          Alcotest.test_case "xor" `Quick test_xor;
        ] );
      ( "counting",
        [
          Alcotest.test_case "probability" `Quick test_probability;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "support" `Quick test_support;
        ] );
      ( "memory",
        [
          Alcotest.test_case "kill/resurrect" `Quick test_refcount_kill_resurrect;
          Alcotest.test_case "deref underflow" `Quick test_deref_underflow;
          Alcotest.test_case "collect" `Quick test_collect_reclaims_and_preserves;
          Alcotest.test_case "peak tracking" `Quick test_peak_tracking;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "dot export" `Quick test_to_dot;
        ] );
      qsuite "props"
        [
          prop_bdd_matches_semantics;
          prop_canonicity;
          prop_sat_fraction_counts;
          prop_refcounts_survive_gc;
        ];
      qsuite "complement-props"
        [
          prop_no_complemented_else_edge;
          prop_double_negation_physical;
          prop_ite_truth_table;
          prop_probability_complement_exact;
        ];
      ( "compile",
        [
          Alcotest.test_case "simple" `Quick test_compile_simple;
          Alcotest.test_case "permuted variables" `Quick test_compile_var_permutation;
          Alcotest.test_case "releases intermediates" `Quick test_compile_releases_intermediates;
          Alcotest.test_case "constant output" `Quick test_compile_constant_output;
        ] );
      qsuite "compile-props" [ prop_compile_matches_interpreter ];
      qsuite "walk-props" [ prop_walks_match_reference ];
      ( "cutsets",
        [
          Alcotest.test_case "basic" `Quick test_cutsets_basic;
          Alcotest.test_case "terminals" `Quick test_cutsets_terminals;
          Alcotest.test_case "count and limit" `Quick test_cutsets_count_and_limit;
        ] );
      qsuite "cutsets-props" [ prop_cutsets_match_brute_force ];
      ( "deep-diagrams",
        [
          Alcotest.test_case "ops on a 220k-deep chain" `Quick test_deep_chain_ops;
          Alcotest.test_case "APPLY cores 220k deep" `Quick test_deep_apply_cores;
          Alcotest.test_case "APPLY cores 220k deep in a team task" `Quick
            test_deep_apply_cores_in_team;
          Alcotest.test_case "publish_obs is delta-based" `Quick
            test_publish_obs_delta;
        ] );
      ( "computed-cache",
        [
          Alcotest.test_case "cache_bits validated" `Quick
            test_cache_bits_validated;
          Alcotest.test_case "growth keeps compiled results" `Quick
            test_cache_growth_keeps_results;
          Alcotest.test_case "growth inside one call" `Quick
            test_cache_growth_inside_one_call;
          Alcotest.test_case "mk-only manager keeps 4096 lines" `Quick
            test_mk_only_manager_keeps_small_cache;
          Alcotest.test_case "ITE and AND counter pins" `Quick
            test_random_circuit_counter_pins;
        ] );
    ]
