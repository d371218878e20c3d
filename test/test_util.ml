(* Tests for Socy_util: bitsets, PRNG, special functions, statistics,
   text tables, growable vectors. *)

module Bitset = Socy_util.Bitset
module Prng = Socy_util.Prng
module Specfun = Socy_util.Specfun
module Stats = Socy_util.Stats
module Text_table = Socy_util.Text_table
module Int_vec = Socy_util.Int_vec

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basics () =
  let s = Bitset.create 200 in
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements" [ 0; 64; 199 ] (Bitset.elements s)

let test_bitset_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 3;
  Alcotest.(check int) "single element" 1 (Bitset.cardinal s)

let test_bitset_union_inter () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  List.iter (Bitset.add a) [ 1; 2; 3; 70 ];
  List.iter (Bitset.add b) [ 2; 3; 4; 99 ];
  Alcotest.(check int) "inter" 2 (Bitset.inter_cardinal a b);
  Alcotest.(check int) "diff a-b" 2 (Bitset.diff_cardinal a b);
  Alcotest.(check int) "diff b-a" 2 (Bitset.diff_cardinal b a);
  let c = Bitset.copy a in
  Bitset.union_into ~into:c b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 70; 99 ] (Bitset.elements c);
  (* the copy is independent *)
  Alcotest.(check int) "copy independent" 4 (Bitset.cardinal a)

let test_bitset_bounds () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "mem out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s 5));
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s (-1))

let test_bitset_equal () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.add a 13;
  Bitset.add b 13;
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Bitset.add b 14;
  Alcotest.(check bool) "not equal" false (Bitset.equal a b)

let prop_bitset_matches_list_model =
  QCheck.Test.make ~name:"bitset matches a list model" ~count:200
    QCheck.(list (pair (int_bound 99) bool))
    (fun ops ->
      let s = Bitset.create 100 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, add) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) model []) in
      Bitset.elements s = expected && Bitset.cardinal s = List.length expected)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_differs () =
  let a = Prng.create 7L in
  let b = Prng.split a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Alcotest.(check bool) "split stream differs" true (xa <> xb)

let test_prng_int_range () =
  let g = Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_range () =
  let g = Prng.create 2L in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_float_mean () =
  let g = Prng.create 3L in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g
  done;
  check_float ~eps:0.01 "mean near 0.5" 0.5 (!acc /. float_of_int n)

let test_prng_categorical () =
  let g = Prng.create 4L in
  (* cdf for pmf [0.2; 0.5; 0.3] *)
  let cdf = [| 0.2; 0.7; 1.0 |] in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Prng.categorical g ~cdf in
    counts.(i) <- counts.(i) + 1
  done;
  check_float ~eps:0.02 "p0" 0.2 (float_of_int counts.(0) /. float_of_int n);
  check_float ~eps:0.02 "p1" 0.5 (float_of_int counts.(1) /. float_of_int n);
  check_float ~eps:0.02 "p2" 0.3 (float_of_int counts.(2) /. float_of_int n)

let test_prng_categorical_degenerate () =
  let g = Prng.create 5L in
  let cdf = [| 1.0 |] in
  for _ = 1 to 10 do
    Alcotest.(check int) "only index" 0 (Prng.categorical g ~cdf)
  done

(* ------------------------------------------------------------------ *)
(* Specfun                                                             *)
(* ------------------------------------------------------------------ *)

let test_log_gamma_integers () =
  (* Γ(n) = (n-1)! *)
  let fact = [| 1.0; 1.0; 2.0; 6.0; 24.0; 120.0; 720.0; 5040.0 |] in
  Array.iteri
    (fun i f ->
      check_float ~eps:1e-10 (Printf.sprintf "lgamma %d" (i + 1)) (log f)
        (Specfun.log_gamma (float_of_int (i + 1))))
    fact

let test_log_gamma_half () =
  (* Γ(1/2) = sqrt(pi) *)
  check_float ~eps:1e-10 "lgamma 0.5" (0.5 *. log Float.pi) (Specfun.log_gamma 0.5)

let test_log_gamma_recurrence () =
  (* Γ(x+1) = x Γ(x) *)
  List.iter
    (fun x ->
      check_float ~eps:1e-9 "recurrence"
        (Specfun.log_gamma x +. log x)
        (Specfun.log_gamma (x +. 1.0)))
    [ 0.25; 0.7; 1.3; 4.5; 20.0; 123.456 ]

let test_log_gamma_invalid () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Specfun.log_gamma: nonpositive argument") (fun () ->
      ignore (Specfun.log_gamma 0.0))

let test_log_factorial () =
  check_float "0!" 0.0 (Specfun.log_factorial 0);
  check_float "5!" (log 120.0) (Specfun.log_factorial 5);
  (* consistency across the table / lgamma boundary *)
  check_float ~eps:1e-8 "200!"
    (Specfun.log_gamma 201.0)
    (Specfun.log_factorial 200)

let test_log_choose () =
  check_float "C(5,2)" (log 10.0) (Specfun.log_choose 5 2);
  check_float "C(10,0)" 0.0 (Specfun.log_choose 10 0);
  check_float "C(10,10)" 0.0 (Specfun.log_choose 10 10);
  Alcotest.check_raises "k > n" (Invalid_argument "Specfun.log_choose: k out of range")
    (fun () -> ignore (Specfun.log_choose 3 4))

let test_log_add_exp () =
  check_float "ln(e^0+e^0)" (log 2.0) (Specfun.log_add_exp 0.0 0.0);
  check_float "asymmetric" (log (exp 1.0 +. exp 3.0)) (Specfun.log_add_exp 1.0 3.0);
  check_float "neg_infinity identity" 5.0 (Specfun.log_add_exp neg_infinity 5.0)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_variance () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  check_float "mean" 5.0 (Stats.mean s);
  check_float ~eps:1e-9 "variance" (32.0 /. 7.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "empty mean" 0.0 (Stats.mean s);
  check_float "empty var" 0.0 (Stats.variance s);
  check_float "empty ci" 0.0 (Stats.confidence95 s)

let test_wilson_interval () =
  let lo, hi = Stats.wilson95 ~successes:90 ~trials:100 in
  Alcotest.(check bool) "contains p-hat" true (lo < 0.9 && hi > 0.9);
  Alcotest.(check bool) "bounded" true (lo >= 0.0 && hi <= 1.0);
  let lo0, hi0 = Stats.wilson95 ~successes:0 ~trials:50 in
  Alcotest.(check bool) "zero successes lo" true (lo0 = 0.0);
  Alcotest.(check bool) "zero successes hi positive" true (hi0 > 0.0);
  let lo1, hi1 = Stats.wilson95 ~successes:50 ~trials:50 in
  Alcotest.(check bool) "all successes hi" true (hi1 = 1.0 && lo1 < 1.0)

let test_wilson_invalid () =
  Alcotest.check_raises "no trials" (Invalid_argument "Stats.wilson95: no trials")
    (fun () -> ignore (Stats.wilson95 ~successes:0 ~trials:0))

let prop_wilson_covers_estimate =
  QCheck.Test.make ~name:"wilson interval brackets the point estimate" ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (a, b) ->
      let trials = max 1 (max a b) and successes = min a b in
      let p = float_of_int successes /. float_of_int trials in
      let lo, hi = Stats.wilson95 ~successes ~trials in
      lo <= p +. 1e-12 && p <= hi +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Text_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Text_table.create ~aligns:[ Text_table.Left; Text_table.Right ] [ "name"; "n" ] in
  Text_table.add_row t [ "a"; "1" ];
  Text_table.add_row t [ "bb"; "22" ];
  let out = Text_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* right-aligned numbers *)
  Alcotest.(check bool) "right aligned" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "a    |  1") lines)

let test_table_arity_mismatch () =
  let t = Text_table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Text_table.add_row: arity mismatch")
    (fun () -> Text_table.add_row t [ "only one" ])

let test_group_thousands () =
  Alcotest.(check string) "small" "7" (Text_table.group_thousands 7);
  Alcotest.(check string) "3 digits" "999" (Text_table.group_thousands 999);
  Alcotest.(check string) "4 digits" "1,000" (Text_table.group_thousands 1000);
  Alcotest.(check string) "paper-size" "7,954,261" (Text_table.group_thousands 7954261);
  Alcotest.(check string) "negative" "-12,345" (Text_table.group_thousands (-12345))

(* ------------------------------------------------------------------ *)
(* Int_vec                                                             *)
(* ------------------------------------------------------------------ *)

let test_int_vec_push_get () =
  let v = Int_vec.create ~capacity:2 () in
  for i = 0 to 99 do
    let idx = Int_vec.push v (i * i) in
    Alcotest.(check int) "push returns index" i idx
  done;
  Alcotest.(check int) "length" 100 (Int_vec.length v);
  Alcotest.(check int) "get 7" 49 (Int_vec.get v 7);
  Int_vec.set v 7 123;
  Alcotest.(check int) "set" 123 (Int_vec.get v 7);
  Alcotest.(check int) "pop returns the last" (99 * 99) (Int_vec.pop v);
  Alcotest.(check int) "pop shrinks" 99 (Int_vec.length v);
  Alcotest.(check int) "push after pop reuses the index" 99 (Int_vec.push v 5)

let test_int_vec_bounds () =
  let v = Int_vec.create () in
  ignore (Int_vec.push v 1);
  Alcotest.check_raises "get oob" (Invalid_argument "Int_vec: index out of bounds")
    (fun () -> ignore (Int_vec.get v 1));
  ignore (Int_vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_vec.pop: empty vector")
    (fun () -> ignore (Int_vec.pop v))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "add idempotent" `Quick test_bitset_add_idempotent;
          Alcotest.test_case "union/inter/diff" `Quick test_bitset_union_inter;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "equal" `Quick test_bitset_equal;
        ] );
      qsuite "bitset-props" [ prop_bitset_matches_list_model ];
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split differs" `Quick test_prng_split_differs;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "categorical frequencies" `Quick test_prng_categorical;
          Alcotest.test_case "categorical degenerate" `Quick test_prng_categorical_degenerate;
        ] );
      ( "specfun",
        [
          Alcotest.test_case "lgamma integers" `Quick test_log_gamma_integers;
          Alcotest.test_case "lgamma half" `Quick test_log_gamma_half;
          Alcotest.test_case "lgamma recurrence" `Quick test_log_gamma_recurrence;
          Alcotest.test_case "lgamma invalid" `Quick test_log_gamma_invalid;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "log_choose" `Quick test_log_choose;
          Alcotest.test_case "log_add_exp" `Quick test_log_add_exp;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "wilson" `Quick test_wilson_interval;
          Alcotest.test_case "wilson invalid" `Quick test_wilson_invalid;
        ] );
      qsuite "stats-props" [ prop_wilson_covers_estimate ];
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
          Alcotest.test_case "group thousands" `Quick test_group_thousands;
        ] );
      ( "int_vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_int_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_int_vec_bounds;
        ] );
    ]
