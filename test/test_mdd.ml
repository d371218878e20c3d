(* Tests for Socy_mdd: ROMDD reduction rules, APPLY, probability
   evaluation, and the coded-ROBDD -> ROMDD conversion (the paper's layer
   algorithm, including a Fig. 3-style partial-code case). *)

module Mdd = Socy_mdd.Mdd
module Conversion = Socy_mdd.Conversion
module B = Socy_bdd.Manager

let spec name domain = { Mdd.name; domain }

(* ------------------------------------------------------------------ *)
(* Reduction rules and structure                                       *)
(* ------------------------------------------------------------------ *)

let test_mk_elimination () =
  let t = Mdd.create [| spec "a" 3 |] in
  Alcotest.(check int) "all-equal children collapse"
    Mdd.one
    (Mdd.mk t 0 [| Mdd.one; Mdd.one; Mdd.one |]);
  let n = Mdd.mk t 0 [| Mdd.zero; Mdd.one; Mdd.zero |] in
  Alcotest.(check bool) "distinct children create a node" true (not (Mdd.is_terminal n));
  Alcotest.(check int) "level" 0 (Mdd.level t n)

let test_mk_hash_consing () =
  let t = Mdd.create [| spec "a" 3 |] in
  let n1 = Mdd.mk t 0 [| Mdd.zero; Mdd.one; Mdd.zero |] in
  let n2 = Mdd.mk t 0 [| Mdd.zero; Mdd.one; Mdd.zero |] in
  Alcotest.(check int) "hash consed" n1 n2;
  let n3 = Mdd.mk t 0 [| Mdd.one; Mdd.zero; Mdd.zero |] in
  Alcotest.(check bool) "different children differ" true (n1 <> n3)

let test_mk_arity_check () =
  let t = Mdd.create [| spec "a" 3 |] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Mdd.mk: children arity must match the variable domain")
    (fun () -> ignore (Mdd.mk t 0 [| Mdd.zero; Mdd.one |]))

let test_literal () =
  let t = Mdd.create [| spec "a" 4 |] in
  let l = Mdd.literal t 0 ~values:[ 1; 3 ] in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "value %d" v)
        (v = 1 || v = 3)
        (Mdd.eval t l (fun _ -> v)))
    [ 0; 1; 2; 3 ];
  Alcotest.(check int) "empty literal" Mdd.zero (Mdd.literal t 0 ~values:[]);
  Alcotest.(check int) "full literal" Mdd.one (Mdd.literal t 0 ~values:[ 0; 1; 2; 3 ])

let test_children_borrowed () =
  let t = Mdd.create [| spec "a" 2; spec "b" 2 |] in
  let inner = Mdd.literal t 1 ~values:[ 1 ] in
  let n = Mdd.mk t 0 [| Mdd.zero; inner |] in
  let kids = Mdd.children t n in
  Alcotest.(check int) "child 0" Mdd.zero kids.(0);
  Alcotest.(check int) "child 1" inner kids.(1)

(* ------------------------------------------------------------------ *)
(* APPLY                                                               *)
(* ------------------------------------------------------------------ *)

(* Exhaustive evaluation over all assignments of the manager's variables. *)
let forall_assignments t f =
  let n = Mdd.num_mvars t in
  let domains = Array.init n (fun v -> (Mdd.spec t v).Mdd.domain) in
  let assignment = Array.make n 0 in
  let rec go v =
    if v = n then f (fun i -> assignment.(i))
    else
      for j = 0 to domains.(v) - 1 do
        assignment.(v) <- j;
        go (v + 1)
      done
  in
  go 0

let test_apply_semantics () =
  let t = Mdd.create [| spec "a" 3; spec "b" 2 |] in
  let la = Mdd.literal t 0 ~values:[ 0; 2 ] in
  let lb = Mdd.literal t 1 ~values:[ 1 ] in
  let conj = Mdd.apply_and t la lb in
  let disj = Mdd.apply_or t la lb in
  let xor = Mdd.apply_xor t la lb in
  let neg = Mdd.not_ t la in
  forall_assignments t (fun env ->
      let a = env 0 = 0 || env 0 = 2 in
      let b = env 1 = 1 in
      Alcotest.(check bool) "and" (a && b) (Mdd.eval t conj env);
      Alcotest.(check bool) "or" (a || b) (Mdd.eval t disj env);
      Alcotest.(check bool) "xor" (a <> b) (Mdd.eval t xor env);
      Alcotest.(check bool) "not" (not a) (Mdd.eval t neg env))

let test_apply_canonicity () =
  let t = Mdd.create [| spec "a" 3; spec "b" 3 |] in
  let la = Mdd.literal t 0 ~values:[ 1 ] in
  let lb = Mdd.literal t 1 ~values:[ 2 ] in
  Alcotest.(check int) "and commutes" (Mdd.apply_and t la lb) (Mdd.apply_and t lb la);
  (* De Morgan *)
  let lhs = Mdd.not_ t (Mdd.apply_and t la lb) in
  let rhs = Mdd.apply_or t (Mdd.not_ t la) (Mdd.not_ t lb) in
  Alcotest.(check int) "de morgan" lhs rhs;
  Alcotest.(check int) "double negation" la (Mdd.not_ t (Mdd.not_ t la))

let test_probability () =
  let t = Mdd.create [| spec "a" 3; spec "b" 2 |] in
  let pa = [| 0.5; 0.3; 0.2 |] and pb = [| 0.6; 0.4 |] in
  let p lv v = if lv = 0 then pa.(v) else pb.(v) in
  let la = Mdd.literal t 0 ~values:[ 0; 2 ] in
  let lb = Mdd.literal t 1 ~values:[ 1 ] in
  Alcotest.(check (float 1e-12)) "literal prob" 0.7 (Mdd.probability t la ~p);
  let conj = Mdd.apply_and t la lb in
  Alcotest.(check (float 1e-12)) "and prob" (0.7 *. 0.4) (Mdd.probability t conj ~p);
  Alcotest.(check (float 1e-12)) "one" 1.0 (Mdd.probability t Mdd.one ~p);
  Alcotest.(check (float 1e-12)) "zero" 0.0 (Mdd.probability t Mdd.zero ~p)

let test_size_support () =
  let t = Mdd.create [| spec "a" 2; spec "b" 2; spec "c" 2 |] in
  let la = Mdd.literal t 0 ~values:[ 1 ] in
  let lc = Mdd.literal t 2 ~values:[ 1 ] in
  let f = Mdd.apply_and t la lc in
  Alcotest.(check (list int)) "support skips b" [ 0; 2 ] (Mdd.support t f);
  Alcotest.(check int) "size" 4 (Mdd.size t f)

(* ------------------------------------------------------------------ *)
(* The paper's Fig. 2 diagram, built by hand                           *)
(* ------------------------------------------------------------------ *)

let test_fig2_hand_built () =
  (* Order v1, v2, w; domains 3, 3, 4 (components 1..3 are 0-based 0..2;
     w in 0..3 with M = 2). F = x1·x2 + x3.
     The diagram of Fig. 2 has 7 nonterminal nodes. *)
  let t = Mdd.create [| spec "v1" 3; spec "v2" 3; spec "w" 4 |] in
  (* bottom: w-nodes *)
  let n5 = Mdd.literal t 2 ~values:[ 2; 3 ] in
  (* "w >= 2" *)
  let n6 = Mdd.literal t 2 ~values:[ 1; 2; 3 ] in
  (* "w >= 1" *)
  let n7 = Mdd.literal t 2 ~values:[ 3 ] in
  (* "w = 3" (overflow) *)
  (* middle: v2 nodes; top: the v1 node *)
  let n3 = Mdd.mk t 1 [| n5; n5; n6 |] in
  let n4 = Mdd.mk t 1 [| n6; n5; n6 |] in
  let n2 = Mdd.mk t 0 [| n3; n4; n6 |] in
  Alcotest.(check bool) "nodes distinct" true (n2 <> n3 && n3 <> n4 && n5 <> n6);
  Alcotest.(check bool) "overflow filter is a node" true (not (Mdd.is_terminal n7));
  (* the hand-built diagram: 1 v1 + 2 v2 + 2 w reachable + 2 terminals *)
  Alcotest.(check int) "hand-built size" 7 (Mdd.size t n2);
  (* its evaluation agrees with a direct reading of the diagram *)
  let p lv v =
    if lv = 2 then [| 0.4; 0.3; 0.2; 0.1 |].(v) else 1.0 /. 3.0
  in
  Alcotest.(check bool) "probability in (0,1)" true
    (let x = Mdd.probability t n2 ~p in
     x > 0.0 && x < 1.0)

(* ------------------------------------------------------------------ *)
(* Conversion: hand-built coded ROBDDs                                 *)
(* ------------------------------------------------------------------ *)

(* Case 1: one 3-valued variable x encoded on two bits (codes 00, 01, 10 —
   value 3 = code 11 unused), like the paper's Fig. 3 layer. Function:
   "x = 1" (value 1 of the domain). *)
let test_conversion_single_group () =
  let bdd = B.create ~num_vars:2 () in
  (* bits: level 0 = msb, level 1 = lsb; f = ¬b0 ∧ b1 *)
  let b0 = B.var bdd 0 and b1 = B.var bdd 1 in
  let f = B.and_ bdd (B.not_ bdd b0) b1 in
  let mdd = Mdd.create [| spec "x" 3 |] in
  let layout =
    {
      Conversion.group_of_level = [| 0; 0 |];
      levels_of_group = [| [| 0; 1 |] |];
      codeword =
        (fun _ v ->
          match v with
          | 0 -> [| false; false |]
          | 1 -> [| false; true |]
          | _ -> [| true; false |]);
    }
  in
  let root = Conversion.run bdd f mdd layout in
  Alcotest.(check int) "conversion = literal" (Mdd.literal mdd 0 ~values:[ 1 ]) root

(* Case 2: two groups; the function depends only on the second group, so
   the first layer must be skipped via the elimination rule. *)
let test_conversion_skipped_group () =
  let bdd = B.create ~num_vars:3 () in
  (* group 0: levels 0-1 (3-valued), group 1: level 2 (2-valued) *)
  let f = B.var bdd 2 in
  let mdd = Mdd.create [| spec "x" 3; spec "y" 2 |] in
  let layout =
    {
      Conversion.group_of_level = [| 0; 0; 1 |];
      levels_of_group = [| [| 0; 1 |]; [| 2 |] |];
      codeword =
        (fun g v ->
          if g = 0 then
            match v with
            | 0 -> [| false; false |]
            | 1 -> [| false; true |]
            | _ -> [| true; false |]
          else [| v = 1 |]);
    }
  in
  let root = Conversion.run bdd f mdd layout in
  Alcotest.(check int) "skips eliminated layer" (Mdd.literal mdd 1 ~values:[ 1 ]) root

(* Case 3: invalid codewords route to junk. The function is true exactly on
   code 11 of the first group, which encodes no domain value: the ROMDD
   must be the constant 0 even though the BDD is not. *)
let test_conversion_invalid_code_unreachable () =
  let bdd = B.create ~num_vars:2 () in
  let f = B.and_ bdd (B.var bdd 0) (B.var bdd 1) in
  let mdd = Mdd.create [| spec "x" 3 |] in
  let layout =
    {
      Conversion.group_of_level = [| 0; 0 |];
      levels_of_group = [| [| 0; 1 |] |];
      codeword =
        (fun _ v ->
          match v with
          | 0 -> [| false; false |]
          | 1 -> [| false; true |]
          | _ -> [| true; false |]);
    }
  in
  let root = Conversion.run bdd f mdd layout in
  Alcotest.(check int) "constant zero" Mdd.zero root

(* Case 4: terminal root. *)
let test_conversion_terminal_root () =
  let bdd = B.create ~num_vars:2 () in
  let mdd = Mdd.create [| spec "x" 3 |] in
  let layout =
    {
      Conversion.group_of_level = [| 0; 0 |];
      levels_of_group = [| [| 0; 1 |] |];
      codeword = (fun _ _ -> [| false; false |]);
    }
  in
  Alcotest.(check int) "one" Mdd.one (Conversion.run bdd B.one mdd layout);
  Alcotest.(check int) "zero" Mdd.zero (Conversion.run bdd B.zero mdd layout)

(* Case 5: layouts the trie walk cannot follow are refused: a codeword
   with a bit count other than its group's, and a group whose levels are
   not listed in increasing order. *)
let test_conversion_layout_checks () =
  let bdd = B.create ~num_vars:2 () in
  let f = B.and_ bdd (B.var bdd 0) (B.var bdd 1) in
  let layout levels codeword =
    { Conversion.group_of_level = [| 0; 0 |]; levels_of_group = [| levels |]; codeword }
  in
  let refused what layout =
    match Conversion.run bdd f (Mdd.create [| spec "x" 3 |]) layout with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "short codeword" (layout [| 0; 1 |] (fun _ v -> [| v = 1 |]));
  refused "decreasing levels" (layout [| 1; 0 |] (fun _ v -> [| v >= 2; v land 1 = 1 |]))

(* ------------------------------------------------------------------ *)
(* Conversion vs direct APPLY on random multi-valued functions          *)
(* ------------------------------------------------------------------ *)

(* Random functions over three multi-valued variables with domains 3, 4, 2,
   binary-encoded on 2+2+1 levels. We build the function as a random
   combination of value literals, construct it both (a) directly in the
   MDD manager and (b) as a coded ROBDD then converted, and require the
   same hash-consed root. *)

type mexpr =
  | MLit of int * int (* variable, value *)
  | MAnd of mexpr * mexpr
  | MOr of mexpr * mexpr
  | MNot of mexpr

let domains = [| 3; 4; 2 |]
let bits = [| 2; 2; 1 |]
let level_base = [| 0; 2; 4 |]

let rec mexpr_print = function
  | MLit (v, j) -> Printf.sprintf "m%d=%d" v j
  | MAnd (a, b) -> Printf.sprintf "(%s&%s)" (mexpr_print a) (mexpr_print b)
  | MOr (a, b) -> Printf.sprintf "(%s|%s)" (mexpr_print a) (mexpr_print b)
  | MNot a -> Printf.sprintf "!(%s)" (mexpr_print a)

let gen_mexpr =
  QCheck.Gen.(
    let lit =
      int_bound 2 >>= fun v ->
      map (fun j -> MLit (v, j)) (int_bound (domains.(v) - 1))
    in
    sized_size (int_bound 6)
    @@ fix (fun self size ->
           if size <= 0 then lit
           else
             frequency
               [
                 (1, lit);
                 (2, map2 (fun a b -> MAnd (a, b)) (self (size / 2)) (self (size / 2)));
                 (2, map2 (fun a b -> MOr (a, b)) (self (size / 2)) (self (size / 2)));
                 (1, map (fun a -> MNot a) (self (size - 1)));
               ]))

let arb_mexpr = QCheck.make ~print:mexpr_print gen_mexpr

let rec mexpr_eval env = function
  | MLit (v, j) -> env v = j
  | MAnd (a, b) -> mexpr_eval env a && mexpr_eval env b
  | MOr (a, b) -> mexpr_eval env a || mexpr_eval env b
  | MNot a -> not (mexpr_eval env a)

let rec mexpr_mdd t = function
  | MLit (v, j) -> Mdd.literal t v ~values:[ j ]
  | MAnd (a, b) -> Mdd.apply_and t (mexpr_mdd t a) (mexpr_mdd t b)
  | MOr (a, b) -> Mdd.apply_or t (mexpr_mdd t a) (mexpr_mdd t b)
  | MNot a -> Mdd.not_ t (mexpr_mdd t a)

(* Coded ROBDD: variable v's value j is the minterm of its bits,
   msb-first, on levels level_base.(v) .. level_base.(v)+bits.(v)-1. *)
let rec mexpr_bdd m = function
  | MLit (v, j) ->
      let acc = ref B.one in
      for bit = 0 to bits.(v) - 1 do
        let set = j land (1 lsl (bits.(v) - 1 - bit)) <> 0 in
        let lv = level_base.(v) + bit in
        let l = if set then B.var m lv else B.nvar m lv in
        acc := B.and_ m !acc l
      done;
      !acc
  | MAnd (a, b) -> B.and_ m (mexpr_bdd m a) (mexpr_bdd m b)
  | MOr (a, b) -> B.or_ m (mexpr_bdd m a) (mexpr_bdd m b)
  | MNot a -> B.not_ m (mexpr_bdd m a)

let the_layout =
  {
    Conversion.group_of_level = [| 0; 0; 1; 1; 2 |];
    levels_of_group = [| [| 0; 1 |]; [| 2; 3 |]; [| 4 |] |];
    codeword =
      (fun g v ->
        Array.init bits.(g) (fun bit -> v land (1 lsl (bits.(g) - 1 - bit)) <> 0));
  }

let specs_for_props = Array.init 3 (fun v -> spec (Printf.sprintf "m%d" v) domains.(v))

let prop_conversion_equals_direct =
  QCheck.Test.make ~name:"coded-ROBDD conversion = direct APPLY (canonical)" ~count:300
    arb_mexpr
    (fun e ->
      let bdd = B.create ~num_vars:5 () in
      let root_bdd = mexpr_bdd bdd e in
      let mdd = Mdd.create specs_for_props in
      let converted = Conversion.run bdd root_bdd mdd the_layout in
      let direct = mexpr_mdd mdd e in
      converted = direct)

let prop_conversion_semantics =
  QCheck.Test.make ~name:"converted ROMDD evaluates like the expression" ~count:300
    arb_mexpr
    (fun e ->
      let bdd = B.create ~num_vars:5 () in
      let root_bdd = mexpr_bdd bdd e in
      let mdd = Mdd.create specs_for_props in
      let converted = Conversion.run bdd root_bdd mdd the_layout in
      let ok = ref true in
      for a = 0 to domains.(0) - 1 do
        for b = 0 to domains.(1) - 1 do
          for c = 0 to domains.(2) - 1 do
            let env v = match v with 0 -> a | 1 -> b | _ -> c in
            if mexpr_eval env e <> Mdd.eval mdd converted env then ok := false
          done
        done
      done;
      !ok)

let prop_probability_sums_to_one_partition =
  QCheck.Test.make ~name:"P(f) + P(¬f) = 1" ~count:200 arb_mexpr (fun e ->
      let mdd = Mdd.create specs_for_props in
      let f = mexpr_mdd mdd e in
      let nf = Mdd.not_ mdd f in
      let p v j = 1.0 /. float_of_int domains.(v) *. float_of_int ((j mod 2) + 1)
      in
      (* an arbitrary, not-uniform pmf; normalize per variable *)
      let norm = Array.init 3 (fun v ->
          let s = ref 0.0 in
          for j = 0 to domains.(v) - 1 do s := !s +. p v j done;
          !s)
      in
      let p v j = p v j /. norm.(v) in
      abs_float (Mdd.probability mdd f ~p +. Mdd.probability mdd nf ~p -. 1.0) < 1e-12)

(* ------------------------------------------------------------------ *)
(* Sensitivities                                                       *)
(* ------------------------------------------------------------------ *)

let base_pmf v j = (1.0 +. float_of_int ((j + v) mod 2)) /. float_of_int (domains.(v) + (domains.(v) mod 2))

(* a valid pmf per variable: weights 1 or 2 normalized *)
let pmf_for v =
  let w = Array.init domains.(v) (fun j -> 1.0 +. float_of_int ((j + v) mod 2)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let test_sensitivities_literal () =
  let t = Mdd.create specs_for_props in
  let f = Mdd.literal t 0 ~values:[ 1 ] in
  let pmfs = Array.init 3 pmf_for in
  let p v j = pmfs.(v).(j) in
  let total, sens = Mdd.probability_with_sensitivities t f ~p in
  Alcotest.(check (float 1e-12)) "P = p(0,1)" pmfs.(0).(1) total;
  Alcotest.(check (float 1e-12)) "d/dp(0,1) = 1" 1.0 sens.(0).(1);
  Alcotest.(check (float 1e-12)) "d/dp(0,0) = 0" 0.0 sens.(0).(0);
  Alcotest.(check (float 1e-12)) "other variable flat" 0.0 sens.(1).(2)

let prop_sensitivities_match_finite_differences =
  QCheck.Test.make ~name:"sensitivities equal finite differences" ~count:100 arb_mexpr
    (fun e ->
      let t = Mdd.create specs_for_props in
      let f = mexpr_mdd t e in
      let pmfs = Array.init 3 pmf_for in
      let p v j = pmfs.(v).(j) in
      let total, sens = Mdd.probability_with_sensitivities t f ~p in
      ignore base_pmf;
      (* consistency with the plain evaluation *)
      abs_float (total -. Mdd.probability t f ~p) < 1e-12
      &&
      let h = 1e-6 in
      let ok = ref true in
      for v = 0 to 2 do
        for j = 0 to domains.(v) - 1 do
          let p' v' j' = if v' = v && j' = j then pmfs.(v).(j) +. h else pmfs.(v').(j') in
          let bumped = Mdd.probability t f ~p:p' in
          let fd = (bumped -. total) /. h in
          if abs_float (fd -. sens.(v).(j)) > 1e-5 then ok := false
        done
      done;
      !ok)

let prop_sensitivities_decomposition =
  (* Sensitivities in this parametrization are reach × child-value sums, so
     they are always nonnegative, and Σ_j p(v,j) · ∂P/∂p(v,j) is exactly the
     probability mass of 1-paths passing through an explicit v-node — at
     most P (paths may skip v through the elimination rule). *)
  QCheck.Test.make ~name:"per-variable mass decomposition" ~count:100 arb_mexpr
    (fun e ->
      let t = Mdd.create specs_for_props in
      let f = mexpr_mdd t e in
      let pmfs = Array.init 3 pmf_for in
      let p v j = pmfs.(v).(j) in
      let total, sens = Mdd.probability_with_sensitivities t f ~p in
      let ok = ref true in
      for v = 0 to 2 do
        let acc = ref 0.0 in
        for j = 0 to domains.(v) - 1 do
          if sens.(v).(j) < 0.0 then ok := false;
          acc := !acc +. (pmfs.(v).(j) *. sens.(v).(j))
        done;
        if !acc > total +. 1e-10 then ok := false;
        (* variables outside the support have identically zero sensitivity *)
        if not (List.mem v (Mdd.support t f)) && !acc <> 0.0 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Vectorized probability sweep                                        *)
(* ------------------------------------------------------------------ *)

(* [nk] scenarios with distinct per-variable pmfs: scenario k weights value
   j of variable v by 1 + ((v + j + k) mod 3), normalized. *)
let sweep_nk = 3

let scenario_pmf k v =
  let w =
    Array.init domains.(v) (fun j -> 1.0 +. float_of_int ((v + j + k) mod 3))
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let prop_sweep_matches_per_scenario_probability =
  QCheck.Test.make ~name:"probability_sweep = per-scenario probability"
    ~count:200 arb_mexpr (fun e ->
      let t = Mdd.create specs_for_props in
      let f = mexpr_mdd t e in
      let pmfs = Array.init sweep_nk (fun k -> Array.init 3 (scenario_pmf k)) in
      let p v j = Array.init sweep_nk (fun k -> pmfs.(k).(v).(j)) in
      let swept = Mdd.probability_sweep t f ~nk:sweep_nk ~p in
      let ok = ref (Array.length swept = sweep_nk) in
      for k = 0 to sweep_nk - 1 do
        let pk v j = pmfs.(k).(v).(j) in
        if abs_float (swept.(k) -. Mdd.probability t f ~p:pk) > 1e-12 then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Walks against the hash-table reference                              *)
(* ------------------------------------------------------------------ *)

(* The hash-table walks that the node-indexed ones replaced, rebuilt on
   the public accessors. The manager's walks must match them exactly:
   the same visit sequence, the same counts, the same float bits (the
   bucket order fixes the summation order of reach and sensitivities). *)
module Ref_walk = struct
  let cone_by_level t n =
    let buckets = Array.make (Mdd.num_mvars t) [] in
    if not (Mdd.is_terminal n) then begin
      let seen = Hashtbl.create 256 in
      Hashtbl.add seen n ();
      let stack = ref [ n ] in
      let rec drain () =
        match !stack with
        | [] -> ()
        | x :: rest ->
            stack := rest;
            let lv = Mdd.level t x in
            buckets.(lv) <- x :: buckets.(lv);
            Array.iter
              (fun c ->
                if (not (Mdd.is_terminal c)) && not (Hashtbl.mem seen c) then begin
                  Hashtbl.add seen c ();
                  stack := c :: !stack
                end)
              (Mdd.children t x);
            drain ()
      in
      drain ()
    end;
    buckets

  let probability t n ~p =
    if n = Mdd.zero then 0.0
    else if n = Mdd.one then 1.0
    else begin
      let buckets = cone_by_level t n in
      let value = Hashtbl.create 256 in
      let node_value x =
        if x = Mdd.zero then 0.0
        else if x = Mdd.one then 1.0
        else Hashtbl.find value x
      in
      for lv = Mdd.num_mvars t - 1 downto 0 do
        List.iter
          (fun x ->
            let kids = Mdd.children t x in
            let acc = ref 0.0 in
            for j = 0 to Array.length kids - 1 do
              let pj = p lv j in
              if pj <> 0.0 then acc := !acc +. (pj *. node_value kids.(j))
            done;
            Hashtbl.replace value x !acc)
          buckets.(lv)
      done;
      Hashtbl.find value n
    end

  let probability_sweep t n ~nk ~p =
    if n = Mdd.zero then Array.make nk 0.0
    else if n = Mdd.one then Array.make nk 1.0
    else begin
      let buckets = cone_by_level t n in
      let value = Hashtbl.create 256 in
      for lv = Mdd.num_mvars t - 1 downto 0 do
        List.iter
          (fun x ->
            let kids = Mdd.children t x in
            let acc = Array.make nk 0.0 in
            for j = 0 to Array.length kids - 1 do
              let c = kids.(j) in
              if c <> Mdd.zero then begin
                let pj = p lv j in
                if c = Mdd.one then
                  for k = 0 to nk - 1 do
                    acc.(k) <- acc.(k) +. pj.(k)
                  done
                else begin
                  let cv : float array = Hashtbl.find value c in
                  for k = 0 to nk - 1 do
                    acc.(k) <- acc.(k) +. (pj.(k) *. cv.(k))
                  done
                end
              end
            done;
            Hashtbl.replace value x acc)
          buckets.(lv)
      done;
      Hashtbl.find value n
    end

  let probability_with_sensitivities t n ~p =
    let nvars = Mdd.num_mvars t in
    let buckets = cone_by_level t n in
    let value = Hashtbl.create 256 in
    let node_value x =
      if x = Mdd.zero then 0.0
      else if x = Mdd.one then 1.0
      else Hashtbl.find value x
    in
    for lv = nvars - 1 downto 0 do
      List.iter
        (fun x ->
          let kids = Mdd.children t x in
          let acc = ref 0.0 in
          for j = 0 to Array.length kids - 1 do
            acc := !acc +. (p lv j *. node_value kids.(j))
          done;
          Hashtbl.replace value x !acc)
        buckets.(lv)
    done;
    let total = node_value n in
    let reach = Hashtbl.create 256 in
    if not (Mdd.is_terminal n) then Hashtbl.replace reach n 1.0;
    let sens =
      Array.init nvars (fun v -> Array.make (Mdd.spec t v).Mdd.domain 0.0)
    in
    for lv = 0 to nvars - 1 do
      List.iter
        (fun x ->
          let r = Option.value ~default:0.0 (Hashtbl.find_opt reach x) in
          if r <> 0.0 then begin
            let kids = Mdd.children t x in
            for j = 0 to Array.length kids - 1 do
              sens.(lv).(j) <- sens.(lv).(j) +. (r *. node_value kids.(j));
              if not (Mdd.is_terminal kids.(j)) then begin
                let cur =
                  Option.value ~default:0.0 (Hashtbl.find_opt reach kids.(j))
                in
                Hashtbl.replace reach kids.(j) (cur +. (r *. p lv j))
              end
            done
          end)
        buckets.(lv)
    done;
    (total, sens)

  let iter_reachable t n f =
    let seen = Hashtbl.create 256 in
    let stack = ref [] in
    let visit n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        if Mdd.is_terminal n then f n else stack := (n, ref 0) :: !stack
      end
    in
    visit n;
    let rec drain () =
      match !stack with
      | [] -> ()
      | (x, j) :: rest ->
          let kids = Mdd.children t x in
          if !j < Array.length kids then begin
            let c = kids.(!j) in
            incr j;
            visit c
          end
          else begin
            stack := rest;
            f x
          end;
          drain ()
    in
    drain ()

  let size t n =
    let c = ref 0 in
    iter_reachable t n (fun _ -> incr c);
    !c

  let support t n =
    let nvars = Mdd.num_mvars t in
    let present = Array.make (nvars + 1) false in
    iter_reachable t n (fun x -> present.(Mdd.level t x) <- true);
    let acc = ref [] in
    for v = nvars - 1 downto 0 do
      if present.(v) then acc := v :: !acc
    done;
    !acc
end

let prop_walks_match_reference =
  QCheck.Test.make ~name:"walks match the hash-table reference" ~count:200
    QCheck.(pair arb_mexpr arb_mexpr)
    (fun (e1, e2) ->
      let t = Mdd.create specs_for_props in
      let f = mexpr_mdd t e1 in
      let g = mexpr_mdd t e2 in
      (* the ROMDD of [e1] again, through the layer conversion *)
      let bdd = B.create ~num_vars:5 () in
      let h = Conversion.run bdd (mexpr_bdd bdd e1) t the_layout in
      (* irregular, unnormalized edge weights, so that any change in
         summation order shows in the low bits *)
      let p v j = 1.0 /. float_of_int (3 + v + (2 * j)) in
      let pv v j = Array.init sweep_nk (fun k -> p v j *. (1.0 +. (0.1 *. float_of_int k))) in
      (* Levels 0 and 2 uniform over the scenarios, so their nodes take
         the scalar path wherever their children allow; the entry past
         [sweep_nk] differs and must be ignored. In [pu_all] every level is
         uniform. *)
      let pu v j =
        if v = 1 then pv v j else Array.init (sweep_nk + 1) (fun k -> if k < sweep_nk then p v j else 0.5)
      in
      let pu_all v j = Array.make sweep_nk (p v j) in
      let bits x = Int64.bits_of_float x in
      let same_floats a b = Array.map bits a = Array.map bits b in
      let visits walk n =
        let l = ref [] in
        walk t n (fun x -> l := x :: !l);
        !l
      in
      List.for_all
        (fun n ->
          let total, sens = Mdd.probability_with_sensitivities t n ~p in
          let rtotal, rsens = Ref_walk.probability_with_sensitivities t n ~p in
          visits Mdd.iter_reachable n = visits Ref_walk.iter_reachable n
          && Mdd.size t n = Ref_walk.size t n
          && Mdd.support t n = Ref_walk.support t n
          && bits (Mdd.probability t n ~p) = bits (Ref_walk.probability t n ~p)
          && List.for_all
               (fun p ->
                 let swept, size = Mdd.probability_sweep_and_size t n ~nk:sweep_nk ~p in
                 same_floats swept (Ref_walk.probability_sweep t n ~nk:sweep_nk ~p)
                 && same_floats swept (Mdd.probability_sweep t n ~nk:sweep_nk ~p)
                 && size = Ref_walk.size t n)
               [ pv; pu; pu_all ]
          && bits total = bits rtotal
          && Array.for_all2 same_floats sens rsens)
        [ f; g; h; Mdd.not_ t g; Mdd.zero; Mdd.one ])

let test_sweep_terminals_and_validation () =
  let t = Mdd.create specs_for_props in
  let p _ _ = [| 0.5; 0.5 |] in
  Alcotest.(check (array (float 0.0))) "zero" [| 0.0; 0.0 |]
    (Mdd.probability_sweep t Mdd.zero ~nk:2 ~p);
  Alcotest.(check (array (float 0.0))) "one" [| 1.0; 1.0 |]
    (Mdd.probability_sweep t Mdd.one ~nk:2 ~p);
  Alcotest.check_raises "nk < 1"
    (Invalid_argument "Mdd.probability_sweep: nk must be positive") (fun () ->
      ignore (Mdd.probability_sweep t Mdd.one ~nk:0 ~p));
  let f = Mdd.literal t 0 ~values:[ 1 ] in
  Alcotest.check_raises "short vector"
    (Invalid_argument "Mdd.probability_sweep: probability vector shorter than nk")
    (fun () -> ignore (Mdd.probability_sweep t f ~nk:3 ~p))

(* ------------------------------------------------------------------ *)
(* Stack safety on deep diagrams; bounded APPLY cache                  *)
(* ------------------------------------------------------------------ *)

let mdd_deep_n = 200_000

let test_deep_mdd_chain () =
  let t =
    Mdd.create
      (Array.init mdd_deep_n (fun i -> spec (Printf.sprintf "v%d" i) 2))
  in
  (* All-variables-at-1 chain, built bottom-up with mk; 200k nodes deep. *)
  let chain = ref Mdd.one in
  for v = mdd_deep_n - 1 downto 0 do
    chain := Mdd.mk t v [| Mdd.zero; !chain |]
  done;
  let chain = !chain in
  Alcotest.(check int) "size" (mdd_deep_n + 2) (Mdd.size t chain);
  Alcotest.(check int) "support" mdd_deep_n (List.length (Mdd.support t chain));
  (* APPLY descends the full chain: xor with the terminal 1 = negation. *)
  let neg = Mdd.not_ t chain in
  Alcotest.(check bool) "chain eval" true (Mdd.eval t chain (fun _ -> 1));
  Alcotest.(check bool) "neg eval" true (Mdd.eval t neg (fun _ -> 0));
  let p _ j = if j = 1 then 1.0 else 0.0 in
  Alcotest.(check (float 1e-12)) "probability" 1.0 (Mdd.probability t chain ~p);
  let swept =
    Mdd.probability_sweep t chain ~nk:2 ~p:(fun _ j ->
        if j = 1 then [| 1.0; 0.5 |] else [| 0.0; 0.5 |])
  in
  Alcotest.(check (float 1e-12)) "sweep scenario 0" 1.0 swept.(0);
  let total, _sens = Mdd.probability_with_sensitivities t chain ~p in
  Alcotest.(check (float 1e-12)) "sensitivities total" 1.0 total

(* [apply_and], [apply_or] and [apply_xor] at full depth: each meets the
   chain's nodes one level at a time down to the literal at the last
   level, missing the cache at every level above it. *)
let deep_apply_ops n =
  let t = Mdd.create (Array.init n (fun i -> spec (Printf.sprintf "v%d" i) 2)) in
  let chain = ref Mdd.one in
  for v = n - 1 downto 0 do
    chain := Mdd.mk t v [| Mdd.zero; !chain |]
  done;
  let chain = !chain and x = Mdd.literal t (n - 1) ~values:[ 1 ] in
  let descends what f =
    let before = (Mdd.stats t).Mdd.apply_misses in
    let r = f () in
    let descended = (Mdd.stats t).Mdd.apply_misses - before in
    if descended < n - 1 then
      Alcotest.failf "%s missed %d times on a %d-deep chain" what descended n;
    r
  in
  Alcotest.(check int) "apply_and = chain" chain
    (descends "apply_and" (fun () -> Mdd.apply_and t chain x));
  Alcotest.(check int) "apply_or = x" x (descends "apply_or" (fun () -> Mdd.apply_or t chain x));
  let p = descends "apply_xor" (fun () -> Mdd.apply_xor t chain x) in
  Alcotest.(check bool) "apply_xor all set" false (Mdd.eval t p (fun _ -> 1));
  Alcotest.(check bool) "apply_xor v0 clear" true (Mdd.eval t p (fun v -> if v = 0 then 0 else 1));
  Alcotest.(check int) "apply_xor size" (n + 2) (Mdd.size t p)

let test_deep_apply () = deep_apply_ops mdd_deep_n

(* The same, in two team tasks, one of them on a worker domain of the
   team. *)
let test_deep_apply_in_team () = Two_domains.run (fun _ -> deep_apply_ops mdd_deep_n)

let test_conversion_deep_scan () =
  let n = 200_000 in
  let bdd = B.create ~num_vars:n () in
  let chain = ref B.one in
  for v = n - 1 downto 0 do
    let x = B.var bdd v in
    let nxt = B.and_ bdd x !chain in
    B.deref bdd x;
    B.deref bdd !chain;
    chain := nxt
  done;
  let mdd =
    Mdd.create (Array.init n (fun i -> spec (Printf.sprintf "g%d" i) 2))
  in
  let layout =
    {
      Conversion.group_of_level = Array.init n Fun.id;
      levels_of_group = Array.init n (fun i -> [| i |]);
      codeword = (fun _ v -> [| v = 1 |]);
    }
  in
  let root = Conversion.run bdd !chain mdd layout in
  Alcotest.(check int) "romdd size" (n + 2) (Mdd.size mdd root);
  Alcotest.(check bool) "evaluates" true (Mdd.eval mdd root (fun _ -> 1))

let test_apply_cache_bounded () =
  (* A small direct-mapped cache (2^6 slots) plus many repeated APPLY and
     probability calls: node count must stabilize after the first round
     (canonical results, no memo leak) while hits keep accruing. *)
  let t = Mdd.create ~cache_bits:6 specs_for_props in
  let la = Mdd.literal t 0 ~values:[ 1 ] in
  let lb = Mdd.literal t 1 ~values:[ 2; 3 ] in
  let lc = Mdd.literal t 2 ~values:[ 1 ] in
  let pmfs = Array.init 3 pmf_for in
  let p v j = pmfs.(v).(j) in
  let nodes_after_first = ref 0 in
  for i = 1 to 500 do
    let x = Mdd.apply_and t la lb in
    let y = Mdd.apply_or t x lc in
    let z = Mdd.apply_xor t y la in
    ignore (Mdd.probability t z ~p);
    ignore (Mdd.probability_sweep t z ~nk:2 ~p:(fun v j -> [| p v j; p v j |]));
    if i = 1 then nodes_after_first := Mdd.total_nodes t
  done;
  Alcotest.(check int) "no node growth across repeats" !nodes_after_first
    (Mdd.total_nodes t);
  let s = Mdd.stats t in
  Alcotest.(check int) "cache capacity fixed" 64 s.Mdd.apply_cache_slots;
  Alcotest.(check bool) "cache hits observed" true (s.Mdd.apply_hits > 0);
  Alcotest.(check bool) "misses bounded by work" true (s.Mdd.apply_misses > 0);
  Alcotest.(check int) "sweeps counted" 500 s.Mdd.sweeps

(* The APPLY cache starts at 4096 slots and doubles on a miss while the
   manager holds more nodes than slots. An OR chain over 5000 ternary
   variables, one APPLY per level, leaves 10k nodes: the cache grows
   past 4096 slots. Building the chain a second time answers from lines
   the resizes moved. Both builds must equal a build whose cache is
   capped at 4096, node ids included. *)
let test_apply_cache_grows () =
  let n = 5000 in
  let chain t =
    let f = ref Mdd.zero in
    for v = n - 1 downto 0 do
      f := Mdd.apply_or t (Mdd.literal t v ~values:[ 1; 2 ]) !f
    done;
    !f
  in
  let build cache_bits =
    let t =
      Mdd.create ~cache_bits
        (Array.init n (fun i -> spec (Printf.sprintf "v%d" i) 3))
    in
    (t, chain t)
  in
  let capped, rc = build 12 and grown, rg = build 16 in
  let hits = (Mdd.stats grown).Mdd.apply_hits in
  Alcotest.(check int) "rebuild from the grown cache" rg (chain grown);
  Alcotest.(check bool) "rebuild hit the cache" true
    ((Mdd.stats grown).Mdd.apply_hits > hits);
  Alcotest.(check int) "capped cache keeps 4096 slots" 4096
    (Mdd.stats capped).Mdd.apply_cache_slots;
  let slots = (Mdd.stats grown).Mdd.apply_cache_slots in
  Alcotest.(check bool)
    (Printf.sprintf "cache grew within its cap (%d slots)" slots)
    true
    (slots > 4096 && slots <= 1 lsl 16);
  Alcotest.(check int) "same root id" rc rg;
  Alcotest.(check int) "same size" (Mdd.size capped rc) (Mdd.size grown rg);
  let p _ j = [| 0.5; 0.3; 0.2 |].(j) in
  Alcotest.(check int64) "probability bits"
    (Int64.bits_of_float (Mdd.probability capped rc ~p))
    (Int64.bits_of_float (Mdd.probability grown rg ~p))

(* ------------------------------------------------------------------ *)
(* Differential oracle: the trie conversion against per-codeword walks *)
(* ------------------------------------------------------------------ *)

module Circuit = Socy_logic.Circuit
module Problem = Socy_encode.Problem
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Compile = Socy_bdd.Compile
module Par = Socy_bdd.Par
module P = Socy_core.Pipeline

(* The conversion walking each value's codeword through the layer on its
   own, with the entry scan and mk order it has always had: the
   reference [Conversion.run] must reproduce node for node. *)
let reference_conversion bdd root mdd (layout : Conversion.layout) =
  let group_of n = layout.Conversion.group_of_level.(B.level bdd n) in
  let pos = Array.make (B.num_vars bdd) (-1) in
  Array.iter (Array.iteri (fun i lv -> pos.(lv) <- i)) layout.Conversion.levels_of_group;
  let entries = Array.make (Mdd.num_mvars mdd) [] in
  let mark n = entries.(group_of n) <- n :: entries.(group_of n) in
  let seen = Hashtbl.create 64 and stack = ref [] in
  let visit n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      if not (B.is_terminal n) then stack := n :: !stack
    end
  in
  if not (B.is_terminal root) then mark root;
  visit root;
  while !stack <> [] do
    let n = List.hd !stack in
    stack := List.tl !stack;
    let edge c =
      if (not (B.is_terminal c)) && group_of c <> group_of n then mark c;
      visit c
    in
    edge (B.low bdd n);
    edge (B.high bdd n)
  done;
  let mapping = Hashtbl.create 64 in
  Hashtbl.replace mapping B.zero Mdd.zero;
  Hashtbl.replace mapping B.one Mdd.one;
  for g = Mdd.num_mvars mdd - 1 downto 0 do
    let rec follow bits n =
      if B.is_terminal n || group_of n <> g then Hashtbl.find mapping n
      else follow bits (if bits.(pos.(B.level bdd n)) then B.high bdd n else B.low bdd n)
    in
    let domain = (Mdd.spec mdd g).Mdd.domain in
    List.iter
      (fun e ->
        if not (Hashtbl.mem mapping e) then
          Hashtbl.replace mapping e
            (Mdd.mk mdd g
               (Array.init domain (fun v -> follow (layout.Conversion.codeword g v) e))))
      entries.(g)
  done;
  Hashtbl.find mapping root

(* Every (mv, bit) order pair [Scheme.make] accepts. *)
let order_pairs =
  let mvs = [ Scheme.Wv; Wvr; Vw; Vrw; Heur H.Topology; Heur H.Weight; Heur H.H4 ] in
  List.concat_map (fun mv -> [ (mv, Scheme.Ml); (mv, Scheme.Lm) ]) mvs
  @ List.map (fun k -> (Scheme.Heur k, Scheme.Heur_bits k)) [ H.Topology; H.Weight; H.H4 ]

type oexpr = OVar of int | ONot of oexpr | OAnd of oexpr * oexpr | OOr of oexpr * oexpr

let rec oexpr_print = function
  | OVar i -> Printf.sprintf "x%d" i
  | ONot e -> Printf.sprintf "!(%s)" (oexpr_print e)
  | OAnd (a, b) -> Printf.sprintf "(%s&%s)" (oexpr_print a) (oexpr_print b)
  | OOr (a, b) -> Printf.sprintf "(%s|%s)" (oexpr_print a) (oexpr_print b)

(* A fault tree over [c] components (2–7: victim domains of every size up
   to 7, most of them not powers of two) and a truncation point M (1–3). *)
let arb_oracle_case =
  let gen =
    QCheck.Gen.(
      int_range 2 7 >>= fun c ->
      int_range 1 3 >>= fun m ->
      let var = map (fun i -> OVar i) (int_bound (c - 1)) in
      sized_size (int_range 2 12)
        (fix (fun self size ->
             if size <= 0 then var
             else
               frequency
                 [
                   (1, var);
                   (1, map (fun e -> ONot e) (self (size - 1)));
                   (2, map2 (fun a b -> OAnd (a, b)) (self (size / 2)) (self (size / 2)));
                   (2, map2 (fun a b -> OOr (a, b)) (self (size / 2)) (self (size / 2)));
                 ]))
      >|= fun e -> (c, m, e))
  in
  QCheck.make ~print:(fun (c, m, e) -> Printf.sprintf "C=%d M=%d %s" c m (oexpr_print e)) gen

let circuit_of_oexpr c e =
  let b = Circuit.builder ~num_inputs:c () in
  let rec go = function
    | OVar i -> Circuit.input b i
    | ONot e -> Circuit.not_ b (go e)
    | OAnd (x, y) -> Circuit.and_ b [ go x; go y ]
    | OOr (x, y) -> Circuit.or_ b [ go x; go y ]
  in
  Circuit.finish b ~name:"oracle" (go e)

(* Converts [problem] under every order pair, in fresh managers, with the
   reference, without a team and with [team]: the same root, the same
   node count, and the same level and children at every id. *)
let conversions_agree ~team problem =
  List.for_all
    (fun (mv, bits) ->
      let scheme = Scheme.make problem ~mv ~bits in
      let bdd = B.create ~num_vars:(Problem.num_binary_vars problem) () in
      let root, _ =
        Compile.of_circuit bdd problem.Problem.circuit ~var_of_input:(fun i ->
            scheme.Scheme.level_of_input.(i))
      in
      let layout = P.layout_of_scheme problem scheme in
      let convert f =
        let mdd = Mdd.create (P.mdd_specs problem scheme) in
        let r = f mdd in
        ( r,
          Mdd.total_nodes mdd,
          List.init (Mdd.total_nodes mdd - 2) (fun i ->
              (Mdd.level mdd (i + 2), Mdd.children mdd (i + 2))) )
      in
      let expected = convert (fun mdd -> reference_conversion bdd root mdd layout) in
      expected = convert (fun mdd -> Conversion.run bdd root mdd layout)
      && expected = convert (fun mdd -> Conversion.run ~team bdd root mdd layout))
    order_pairs

let with_team domains f =
  let team = Par.spawn ~domains in
  Fun.protect ~finally:(fun () -> Par.shutdown team) (fun () -> f team)

let prop_conversion_matches_reference =
  QCheck.Test.make ~name:"trie conversion = per-codeword reference, node for node"
    ~count:40 arb_oracle_case (fun (c, m, e) ->
      with_team 2 (fun team ->
          conversions_agree ~team (Problem.build (circuit_of_oexpr c e) ~m)))

(* Layers of MS2 and ESEN4x1 at M = 3 have enough entries to run the team
   path, which the small random circuits above may not reach. *)
let test_team_layers_match_reference () =
  let par_layers = Socy_obs.Obs.counter "mdd.convert.par_layers" in
  Socy_obs.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Socy_obs.Obs.set_enabled false)
    (fun () ->
      with_team 2 (fun team ->
          List.iter
            (fun name ->
              let instance = Socy_benchmarks.Suite.by_name name in
              let before = Socy_obs.Obs.counter_value par_layers in
              Alcotest.(check bool) (name ^ ": agrees") true
                (conversions_agree ~team
                   (Problem.build instance.Socy_benchmarks.Suite.circuit ~m:3));
              Alcotest.(check bool) (name ^ ": team layers ran") true
                (Socy_obs.Obs.counter_value par_layers > before))
            [ "MS2"; "ESEN4x1" ]))

(* golden/romdd-esen4x1.dot: [socyield dot romdd -b ESEN4x1 --lambda 6
   -e 1e-2], recorded before the trie conversion and the flat store. The
   ROMDD's node ids appear in it, so it pins them. *)
let test_golden_romdd_dot () =
  let instance = Socy_benchmarks.Suite.by_name "ESEN4x1" in
  let model =
    Socy_defects.Model.create
      (Socy_defects.Distribution.negative_binomial ~mean:6.0
         ~alpha:Socy_benchmarks.Suite.alpha)
      instance.Socy_benchmarks.Suite.affect
  in
  match
    P.Artifacts.build ~config:(P.Config.make ~epsilon:1e-2 ())
      instance.Socy_benchmarks.Suite.circuit
      (Socy_defects.Model.to_lethal model)
  with
  | Error f -> Alcotest.failf "build failed: %s" (P.failure_to_string f)
  | Ok a ->
      let golden =
        In_channel.with_open_bin (Filename.concat "golden" "romdd-esen4x1.dot")
          In_channel.input_all
      in
      Alcotest.(check string) "DOT bytes" golden
        (Mdd.to_dot a.P.Artifacts.mdd a.P.Artifacts.mdd_root)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_mdd"
    [
      ( "structure",
        [
          Alcotest.test_case "elimination rule" `Quick test_mk_elimination;
          Alcotest.test_case "hash consing" `Quick test_mk_hash_consing;
          Alcotest.test_case "arity check" `Quick test_mk_arity_check;
          Alcotest.test_case "literal" `Quick test_literal;
          Alcotest.test_case "children" `Quick test_children_borrowed;
        ] );
      ( "apply",
        [
          Alcotest.test_case "semantics" `Quick test_apply_semantics;
          Alcotest.test_case "canonicity" `Quick test_apply_canonicity;
          Alcotest.test_case "probability" `Quick test_probability;
          Alcotest.test_case "size/support" `Quick test_size_support;
          Alcotest.test_case "fig2 hand built" `Quick test_fig2_hand_built;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "single group" `Quick test_conversion_single_group;
          Alcotest.test_case "skipped group" `Quick test_conversion_skipped_group;
          Alcotest.test_case "invalid codes unreachable" `Quick
            test_conversion_invalid_code_unreachable;
          Alcotest.test_case "terminal root" `Quick test_conversion_terminal_root;
          Alcotest.test_case "layout checks" `Quick test_conversion_layout_checks;
        ] );
      qsuite "props"
        [
          prop_conversion_equals_direct;
          prop_conversion_semantics;
          prop_probability_sums_to_one_partition;
        ];
      ( "sensitivities",
        [ Alcotest.test_case "literal" `Quick test_sensitivities_literal ] );
      qsuite "sensitivity-props"
        [
          prop_sensitivities_match_finite_differences;
          prop_sensitivities_decomposition;
        ];
      ( "sweep",
        [
          Alcotest.test_case "terminals and validation" `Quick
            test_sweep_terminals_and_validation;
        ] );
      qsuite "sweep-props" [ prop_sweep_matches_per_scenario_probability ];
      qsuite "walk-props" [ prop_walks_match_reference ];
      qsuite "conversion-oracle" [ prop_conversion_matches_reference ];
      ( "conversion-pins",
        [
          Alcotest.test_case "team layers = reference" `Quick
            test_team_layers_match_reference;
          Alcotest.test_case "golden ROMDD DOT" `Quick test_golden_romdd_dot;
        ] );
      ( "deep-diagrams",
        [
          Alcotest.test_case "200k-deep MDD chain" `Quick test_deep_mdd_chain;
          Alcotest.test_case "200k-deep conversion scan" `Quick
            test_conversion_deep_scan;
          Alcotest.test_case "APPLY 200k deep" `Quick test_deep_apply;
          Alcotest.test_case "APPLY 200k deep in a team task" `Quick test_deep_apply_in_team;
          Alcotest.test_case "bounded APPLY cache" `Quick
            test_apply_cache_bounded;
          Alcotest.test_case "APPLY cache grows" `Quick test_apply_cache_grows;
        ] );
    ]
