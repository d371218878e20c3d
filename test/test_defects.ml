(* Tests for Socy_defects: distribution pmfs, the lethal-defects mapping
   (Eq. 1 of the paper, closed forms vs the generic numerical form),
   truncation-point selection, and the W pmf. *)

module D = Socy_defects.Distribution
module Model = Socy_defects.Model

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let total_mass d ~upto =
  Array.fold_left ( +. ) 0.0 (D.pmf_array d ~upto)

(* Any [Invalid_argument]: the messages name the rejected value. *)
let check_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted" msg

let numeric_mean d ~upto =
  let q = D.pmf_array d ~upto in
  let acc = ref 0.0 in
  Array.iteri (fun k p -> acc := !acc +. (float_of_int k *. p)) q;
  !acc

let test_negbin_pmf () =
  let d = D.negative_binomial ~mean:1.0 ~alpha:4.0 in
  check_float ~eps:1e-12 "Q_0" (1.25 ** -4.0) (D.pmf d 0);
  check_float ~eps:1e-9 "mass" 1.0 (total_mass d ~upto:200);
  check_float ~eps:1e-9 "mean" 1.0 (numeric_mean d ~upto:200);
  Alcotest.(check bool) "negative k" true (D.pmf d (-1) = 0.0);
  List.iter
    (fun (mean, alpha) ->
      check_invalid
        (Printf.sprintf "mean=%g alpha=%g" mean alpha)
        (fun () -> D.negative_binomial ~mean ~alpha))
    [
      (0.0, 4.0); (-1.0, 4.0); (1.0, 0.0); (nan, 4.0); (infinity, 4.0);
      (1.0, nan); (1.0, infinity);
    ]

let test_negbin_variance_clustering () =
  let var d upto mean =
    let q = D.pmf_array d ~upto in
    let acc = ref 0.0 in
    Array.iteri
      (fun k p -> acc := !acc +. (((float_of_int k -. mean) ** 2.0) *. p))
      q;
    !acc
  in
  let d1 = D.negative_binomial ~mean:2.0 ~alpha:0.5 in
  check_float ~eps:1e-6 "clustered variance" (2.0 *. (1.0 +. 4.0)) (var d1 400 2.0);
  let d2 = D.negative_binomial ~mean:2.0 ~alpha:100.0 in
  check_float ~eps:1e-6 "near-poisson variance" (2.0 *. 1.02) (var d2 400 2.0)

let test_poisson_pmf () =
  let d = D.poisson ~mean:1.5 in
  check_float ~eps:1e-12 "Q_0" (exp (-1.5)) (D.pmf d 0);
  check_float ~eps:1e-12 "Q_2" (exp (-1.5) *. 1.5 *. 1.5 /. 2.0) (D.pmf d 2);
  check_float ~eps:1e-9 "mass" 1.0 (total_mass d ~upto:100)

let test_binomial_pmf () =
  let d = D.binomial ~n:10 ~p:0.3 in
  check_float ~eps:1e-12 "Q_0" (0.7 ** 10.0) (D.pmf d 0);
  check_float ~eps:1e-9 "mass" 1.0 (total_mass d ~upto:10);
  Alcotest.(check bool) "beyond n" true (D.pmf d 11 = 0.0);
  check_float "mean" 3.0 (D.mean d);
  let d0 = D.binomial ~n:5 ~p:0.0 in
  check_float "degenerate p=0" 1.0 (D.pmf d0 0);
  let d1 = D.binomial ~n:5 ~p:1.0 in
  check_float "degenerate p=1" 1.0 (D.pmf d1 5)

let test_of_array () =
  let d = D.of_array [| 0.25; 0.5; 0.25 |] in
  check_float "pmf 1" 0.5 (D.pmf d 1);
  check_float "beyond support" 0.0 (D.pmf d 3);
  check_float "cdf" 0.75 (D.cdf d 1);
  Alcotest.check_raises "negative mass"
    (Invalid_argument "Distribution.of_array: negative mass") (fun () ->
      ignore (D.of_array [| -0.5; 1.5 |]));
  (* Unnormalized but valid input: normalized by its (finite, positive)
     total rather than rejected. *)
  let u = D.of_array [| 0.2; 0.2 |] in
  check_float ~eps:1e-12 "normalized pmf 0" 0.5 (D.pmf u 0);
  check_float ~eps:1e-12 "normalized pmf 1" 0.5 (D.pmf u 1);
  let counts = D.of_array [| 3.0; 1.0 |] in
  check_float ~eps:1e-12 "counts normalize" 0.75 (D.pmf counts 0);
  check_float ~eps:1e-12 "normalized mass" 1.0 (total_mass u ~upto:10);
  let bad_total = Invalid_argument
      "Distribution.of_array: total mass must be positive and finite"
  in
  Alcotest.check_raises "all-zero total" bad_total (fun () ->
      ignore (D.of_array [| 0.0; 0.0 |]));
  Alcotest.check_raises "infinite total" bad_total (fun () ->
      ignore (D.of_array [| 1.0; infinity |]));
  (* NaN is its own failure mode, not a mislabelled "negative mass". *)
  Alcotest.check_raises "nan entry"
    (Invalid_argument "Distribution.of_array: NaN mass") (fun () ->
      ignore (D.of_array [| nan; 1.0 |]));
  Alcotest.check_raises "nan entry among negatives"
    (Invalid_argument "Distribution.of_array: NaN mass") (fun () ->
      ignore (D.of_array [| -1.0; nan |]))

let test_custom_mean () =
  let d = D.of_array [| 0.5; 0.0; 0.5 |] in
  check_float ~eps:1e-9 "numeric mean" 1.0 (D.mean d)

let test_mixture () =
  let a = D.poisson ~mean:1.0 and b = D.poisson ~mean:5.0 in
  let m = D.mixture [ (3.0, a); (1.0, b) ] in
  (* weights normalize to 0.75 / 0.25 *)
  check_float ~eps:1e-12 "pmf is the convex combination"
    ((0.75 *. D.pmf a 2) +. (0.25 *. D.pmf b 2))
    (D.pmf m 2);
  check_float ~eps:1e-9 "mass" 1.0 (total_mass m ~upto:100);
  check_float ~eps:1e-12 "mean" ((0.75 *. 1.0) +. (0.25 *. 5.0)) (D.mean m);
  Alcotest.check_raises "empty" (Invalid_argument "Distribution.mixture: empty mixture")
    (fun () -> ignore (D.mixture []));
  let bad_weight =
    Invalid_argument "Distribution.mixture: weights must be positive and finite"
  in
  Alcotest.check_raises "bad weight" bad_weight (fun () ->
      ignore (D.mixture [ (0.0, a) ]));
  (* Both used to slip through the [w <= 0.0] check and poison the
     normalized weights. *)
  Alcotest.check_raises "infinite weight" bad_weight (fun () ->
      ignore (D.mixture [ (infinity, a); (1.0, b) ]));
  Alcotest.check_raises "nan weight"
    (Invalid_argument "Distribution.mixture: NaN weight") (fun () ->
      ignore (D.mixture [ (nan, a); (1.0, b) ]))

let test_mixture_lethal_commutes () =
  (* Eq. (1) commutes with mixing: thinning the mixture = mixture of the
     thinned components; cross-checked against the generic mapping. *)
  let a = D.negative_binomial ~mean:4.0 ~alpha:2.0 in
  let b = D.poisson ~mean:12.0 in
  let m = D.mixture [ (0.6, a); (0.4, b) ] in
  let closed = D.lethal m ~p_lethal:0.25 in
  let generic = D.lethal_generic m ~p_lethal:0.25 ~tol:1e-13 in
  for k = 0 to 20 do
    check_float ~eps:1e-9 (Printf.sprintf "k=%d" k) (D.pmf generic k) (D.pmf closed k)
  done

let test_negbin_lethal_closed_form () =
  let d = D.negative_binomial ~mean:10.0 ~alpha:4.0 in
  let l = D.lethal d ~p_lethal:0.1 in
  let reference = D.negative_binomial ~mean:1.0 ~alpha:4.0 in
  for k = 0 to 30 do
    check_float ~eps:1e-12
      (Printf.sprintf "Q'_%d" k)
      (D.pmf reference k) (D.pmf l k)
  done

let test_lethal_closed_vs_generic () =
  let check_dist d =
    let closed = D.lethal d ~p_lethal:0.17 in
    let generic = D.lethal_generic d ~p_lethal:0.17 ~tol:1e-14 in
    for k = 0 to 25 do
      check_float ~eps:1e-9
        (Printf.sprintf "%s k=%d" (D.name d) k)
        (D.pmf closed k) (D.pmf generic k)
    done
  in
  check_dist (D.negative_binomial ~mean:3.0 ~alpha:2.0);
  check_dist (D.poisson ~mean:2.5);
  check_dist (D.binomial ~n:12 ~p:0.4)

let test_lethal_generic_mass_and_mean () =
  let d = D.of_array [| 0.1; 0.2; 0.3; 0.2; 0.1; 0.1 |] in
  let l = D.lethal d ~p_lethal:0.5 in
  check_float ~eps:1e-9 "mass" 1.0 (total_mass l ~upto:10);
  check_float ~eps:1e-9 "mean halves" (D.mean d /. 2.0) (numeric_mean l ~upto:10)

let test_lethal_extremes () =
  let d = D.negative_binomial ~mean:2.0 ~alpha:1.0 in
  let l1 = D.lethal d ~p_lethal:1.0 in
  for k = 0 to 10 do
    check_float ~eps:1e-12 "identity at p=1" (D.pmf d k) (D.pmf l1 k)
  done;
  let l0 = D.lethal d ~p_lethal:0.0 in
  check_float "all mass at 0" 1.0 (D.pmf l0 0)

let test_truncation_points_match_paper () =
  let m1 =
    D.truncation_point (D.negative_binomial ~mean:1.0 ~alpha:4.0) ~epsilon:1e-3
  in
  let m2 =
    D.truncation_point (D.negative_binomial ~mean:2.0 ~alpha:4.0) ~epsilon:1e-3
  in
  Alcotest.(check int) "M at lambda'=1" 6 m1;
  Alcotest.(check int) "M at lambda'=2" 10 m2

let test_truncation_definition () =
  let d = D.of_array [| 0.9; 0.05; 0.04; 0.01 |] in
  Alcotest.(check int) "eps .2" 0 (D.truncation_point d ~epsilon:0.2);
  Alcotest.(check int) "eps .06" 1 (D.truncation_point d ~epsilon:0.06);
  Alcotest.(check int) "eps .02" 2 (D.truncation_point d ~epsilon:0.02);
  Alcotest.(check int) "eps tiny" 3 (D.truncation_point d ~epsilon:1e-9);
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Distribution.truncation_point: epsilon must be positive")
    (fun () -> ignore (D.truncation_point d ~epsilon:0.0));
  List.iter
    (fun epsilon ->
      check_invalid
        (Printf.sprintf "epsilon=%g" epsilon)
        (fun () -> D.truncation_point d ~epsilon))
    [ nan; infinity ]

(* A mean far beyond any chip's puts M out of reach of the 100000-term
   scan: an Invalid_argument naming the distribution and epsilon, so the
   CLI reports a usage error and the daemon an invalid request. *)
let test_truncation_unreachable () =
  let d = D.negative_binomial ~mean:1e9 ~alpha:4.0 in
  match D.truncation_point d ~epsilon:1e-3 with
  | m -> Alcotest.failf "M = %d returned" m
  | exception Invalid_argument msg ->
      let mentions sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) ("names the distribution: " ^ msg) true (mentions (D.name d));
      Alcotest.(check bool) ("names epsilon: " ^ msg) true (mentions "0.001")

let test_truncation_guarantee () =
  List.iter
    (fun eps ->
      let d = D.negative_binomial ~mean:2.0 ~alpha:0.5 in
      let m = D.truncation_point d ~epsilon:eps in
      let covered = total_mass d ~upto:m in
      Alcotest.(check bool) "tail below epsilon" true (1.0 -. covered <= eps);
      if m > 0 then begin
        let covered' = total_mass d ~upto:(m - 1) in
        Alcotest.(check bool) "m is minimal" true (1.0 -. covered' > eps)
      end)
    [ 0.1; 1e-2; 1e-3; 1e-4 ]

let test_sampler_table () =
  let d = D.poisson ~mean:1.0 in
  let cdf = D.sampler d ~max_k:10 in
  Alcotest.(check int) "length" 12 (Array.length cdf);
  check_float ~eps:1e-12 "last is 1" 1.0 cdf.(11);
  Alcotest.(check bool) "nondecreasing" true
    (let ok = ref true in
     for i = 1 to 11 do
       if cdf.(i) < cdf.(i - 1) then ok := false
     done;
     !ok)

let test_model_lethal () =
  let q = D.negative_binomial ~mean:10.0 ~alpha:4.0 in
  let model = Model.create q [| 0.04; 0.03; 0.03 |] in
  Alcotest.(check int) "components" 3 (Model.num_components model);
  let l = Model.to_lethal model in
  check_float ~eps:1e-12 "P_L" 0.1 l.Model.p_lethal;
  check_float ~eps:1e-12 "P'_0" 0.4 l.Model.component.(0);
  check_float ~eps:1e-12 "P' sums to 1" 1.0
    (Array.fold_left ( +. ) 0.0 l.Model.component);
  check_float ~eps:1e-6 "lethal mean" 1.0 (numeric_mean l.Model.count ~upto:300)

let test_model_validation () =
  let q = D.poisson ~mean:1.0 in
  Alcotest.check_raises "negative P_i" (Invalid_argument "Model.create: negative P_i")
    (fun () -> ignore (Model.create q [| -0.1; 0.2 |]));
  Alcotest.check_raises "sum > 1" (Invalid_argument "Model.create: sum of P_i exceeds 1")
    (fun () -> ignore (Model.create q [| 0.8; 0.4 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Model.create: no components")
    (fun () -> ignore (Model.create q [||]))

let test_w_pmf () =
  let q = D.of_array [| 0.5; 0.3; 0.15; 0.05 |] in
  let model = Model.create q [| 0.5; 0.5 |] in
  let l = Model.to_lethal model in
  let w = Model.w_pmf l ~m:2 in
  Alcotest.(check int) "length M+2" 4 (Array.length w);
  check_float ~eps:1e-9 "w0" 0.5 w.(0);
  check_float ~eps:1e-9 "w2" 0.15 w.(2);
  check_float ~eps:1e-9 "tail" 0.05 w.(3);
  check_float ~eps:1e-9 "mass" 1.0 (Array.fold_left ( +. ) 0.0 w)

let arb_params =
  QCheck.(
    triple (float_range 0.2 5.0) (float_range 0.3 8.0) (float_range 0.05 0.95))

let prop_lethal_mass_preserved =
  QCheck.Test.make ~name:"Eq.(1) preserves total probability mass" ~count:50 arb_params
    (fun (mean, alpha, p) ->
      let d = D.negative_binomial ~mean ~alpha in
      let l = D.lethal_generic d ~p_lethal:p ~tol:1e-12 in
      abs_float (total_mass l ~upto:400 -. 1.0) < 1e-6)

let prop_lethal_mean_thinned =
  QCheck.Test.make ~name:"Eq.(1) thins the mean by p_lethal" ~count:50 arb_params
    (fun (mean, alpha, p) ->
      let d = D.negative_binomial ~mean ~alpha in
      let l = D.lethal_generic d ~p_lethal:p ~tol:1e-12 in
      abs_float (numeric_mean l ~upto:400 -. (mean *. p)) < 1e-4)

let prop_truncation_monotone_in_epsilon =
  QCheck.Test.make ~name:"smaller epsilon gives larger M" ~count:50
    QCheck.(pair (float_range 0.2 4.0) (float_range 0.3 8.0))
    (fun (mean, alpha) ->
      let d = D.negative_binomial ~mean ~alpha in
      let m1 = D.truncation_point d ~epsilon:1e-2 in
      let m2 = D.truncation_point d ~epsilon:1e-4 in
      m2 >= m1)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "socy_defects"
    [
      ( "pmf",
        [
          Alcotest.test_case "negative binomial" `Quick test_negbin_pmf;
          Alcotest.test_case "negbin variance/clustering" `Quick
            test_negbin_variance_clustering;
          Alcotest.test_case "poisson" `Quick test_poisson_pmf;
          Alcotest.test_case "binomial" `Quick test_binomial_pmf;
          Alcotest.test_case "of_array" `Quick test_of_array;
          Alcotest.test_case "custom mean" `Quick test_custom_mean;
          Alcotest.test_case "mixture" `Quick test_mixture;
          Alcotest.test_case "mixture lethal commutes" `Quick test_mixture_lethal_commutes;
        ] );
      ( "lethal",
        [
          Alcotest.test_case "negbin closed form" `Quick test_negbin_lethal_closed_form;
          Alcotest.test_case "closed vs generic Eq.(1)" `Quick test_lethal_closed_vs_generic;
          Alcotest.test_case "generic mass/mean" `Quick test_lethal_generic_mass_and_mean;
          Alcotest.test_case "extremes" `Quick test_lethal_extremes;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "paper M values" `Quick test_truncation_points_match_paper;
          Alcotest.test_case "definition" `Quick test_truncation_definition;
          Alcotest.test_case "guarantee" `Quick test_truncation_guarantee;
          Alcotest.test_case "unreachable M" `Quick test_truncation_unreachable;
          Alcotest.test_case "sampler" `Quick test_sampler_table;
        ] );
      ( "model",
        [
          Alcotest.test_case "lethal model" `Quick test_model_lethal;
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "w pmf" `Quick test_w_pmf;
        ] );
      qsuite "props"
        [
          prop_lethal_mass_preserved;
          prop_lethal_mean_thinned;
          prop_truncation_monotone_in_epsilon;
        ];
    ]
