module Specfun = Socy_util.Specfun

type kind =
  | Neg_binomial of { mean : float; alpha : float }
  | Poisson of { mean : float }
  | Binomial of { n : int; p : float }
  | Mixture of { parts : (float * t) list (* weights normalized *) }
  | Custom of { pmf : int -> float }

and t = { kind : kind; name : string }

let negative_binomial ~mean ~alpha =
  (* [x <= 0.0] alone would let NaN and +inf through. *)
  let valid x = Float.is_finite x && x > 0.0 in
  if not (valid mean && valid alpha) then
    invalid_arg
      (Printf.sprintf
         "Distribution.negative_binomial: mean and alpha must be positive and \
          finite (got mean=%g, alpha=%g)"
         mean alpha);
  {
    kind = Neg_binomial { mean; alpha };
    name = Printf.sprintf "negbin(mean=%g, alpha=%g)" mean alpha;
  }

let poisson ~mean =
  if mean <= 0.0 then invalid_arg "Distribution.poisson: mean must be positive";
  { kind = Poisson { mean }; name = Printf.sprintf "poisson(mean=%g)" mean }

let binomial ~n ~p =
  if n < 0 || p < 0.0 || p > 1.0 then invalid_arg "Distribution.binomial: bad parameters";
  { kind = Binomial { n; p }; name = Printf.sprintf "binomial(n=%d, p=%g)" n p }

let of_array q =
  if Array.exists Float.is_nan q then
    invalid_arg "Distribution.of_array: NaN mass";
  if Array.exists (fun x -> x < 0.0) q then
    invalid_arg "Distribution.of_array: negative mass";
  let total = Array.fold_left ( +. ) 0.0 q in
  if (not (Float.is_finite total)) || total <= 0.0 then
    invalid_arg "Distribution.of_array: total mass must be positive and finite";
  let q = Array.map (fun x -> x /. total) q in
  {
    kind = Custom { pmf = (fun k -> if k < Array.length q then q.(k) else 0.0) };
    name = Printf.sprintf "finite(%d)" (Array.length q);
  }

let of_pmf ~name pmf = { kind = Custom { pmf }; name }

let mixture weighted =
  if weighted = [] then invalid_arg "Distribution.mixture: empty mixture";
  if List.exists (fun (w, _) -> Float.is_nan w) weighted then
    invalid_arg "Distribution.mixture: NaN weight";
  (* [w <= 0.0] alone would let NaN and +inf slip through normalization. *)
  if List.exists (fun (w, _) -> not (Float.is_finite w) || w <= 0.0) weighted
  then invalid_arg "Distribution.mixture: weights must be positive and finite";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  let parts = List.map (fun (w, d) -> (w /. total, d)) weighted in
  let name =
    Printf.sprintf "mixture(%s)"
      (String.concat ", "
         (List.map (fun (w, d) -> Printf.sprintf "%.3g*%s" w d.name) parts))
  in
  { kind = Mixture { parts }; name }

let name d = d.name

let rec pmf d k =
  if k < 0 then 0.0
  else
    match d.kind with
    | Neg_binomial { mean; alpha } ->
        (* log Q_k = logΓ(α+k) − log k! − logΓ(α) + k·log(λ/α) − (α+k)·log(1+λ/α) *)
        let r = mean /. alpha in
        let lk = float_of_int k in
        exp
          (Specfun.log_gamma (alpha +. lk)
          -. Specfun.log_factorial k
          -. Specfun.log_gamma alpha
          +. (lk *. log r)
          -. ((alpha +. lk) *. log1p r))
    | Poisson { mean } ->
        exp ((float_of_int k *. log mean) -. mean -. Specfun.log_factorial k)
    | Binomial { n; p } ->
        if k > n then 0.0
        else if p = 0.0 then if k = 0 then 1.0 else 0.0
        else if p = 1.0 then if k = n then 1.0 else 0.0
        else
          exp
            (Specfun.log_choose n k
            +. (float_of_int k *. log p)
            +. (float_of_int (n - k) *. log1p (-.p)))
    | Mixture { parts } ->
        List.fold_left (fun acc (w, part) -> acc +. (w *. pmf part k)) 0.0 parts
    | Custom { pmf } -> pmf k

let cdf d k =
  let acc = ref 0.0 in
  for i = 0 to k do
    acc := !acc +. pmf d i
  done;
  min !acc 1.0

let pmf_array d ~upto = Array.init (upto + 1) (pmf d)

let rec mean d =
  match d.kind with
  | Neg_binomial { mean; _ } | Poisson { mean } -> mean
  | Binomial { n; p } -> float_of_int n *. p
  | Mixture { parts } ->
      List.fold_left (fun acc (w, part) -> acc +. (w *. mean part)) 0.0 parts
  | Custom { pmf } ->
      (* Numeric mean: stop when the remaining mass is negligible. *)
      let rec loop k acc mass =
        if mass >= 1.0 -. 1e-12 || k > 1_000_000 then acc
        else
          let q = pmf k in
          loop (k + 1) (acc +. (float_of_int k *. q)) (mass +. q)
      in
      loop 0 0.0 0.0

let lethal_generic d ~p_lethal ~tol =
  if p_lethal < 0.0 || p_lethal > 1.0 then
    invalid_arg "Distribution.lethal_generic: p_lethal out of [0,1]";
  (* Determine how far the outer sum over m must run. *)
  let horizon =
    let rec loop m mass =
      if mass >= 1.0 -. tol then m
      else if m > 1_000_000 then
        failwith "Distribution.lethal_generic: distribution tail too heavy"
      else loop (m + 1) (mass +. pmf d m)
    in
    loop 0 0.0
  in
  let q = pmf_array d ~upto:horizon in
  let log_p = if p_lethal > 0.0 then log p_lethal else neg_infinity in
  let log_1p = if p_lethal < 1.0 then log1p (-.p_lethal) else neg_infinity in
  let q' k =
    if k < 0 || k > horizon then 0.0
    else begin
      let acc = ref 0.0 in
      for m = k to horizon do
        if q.(m) > 0.0 then begin
          (* Avoid 0 * (-inf) = NaN at the p_lethal extremes. *)
          let weighted count log_factor =
            if count = 0 then 0.0 else float_of_int count *. log_factor
          in
          let log_binom_term =
            Specfun.log_choose m k +. weighted k log_p +. weighted (m - k) log_1p
          in
          if log_binom_term > neg_infinity then
            acc := !acc +. (q.(m) *. exp log_binom_term)
        end
      done;
      !acc
    end
  in
  (* Memoize into a table: Eq. (1) is O(horizon) per point. *)
  let table = Array.init (horizon + 1) q' in
  {
    kind = Custom { pmf = (fun k -> if k >= 0 && k <= horizon then table.(k) else 0.0) };
    name = Printf.sprintf "lethal(%s, pL=%g)" d.name p_lethal;
  }

let rec lethal d ~p_lethal =
  if p_lethal < 0.0 || p_lethal > 1.0 then
    invalid_arg "Distribution.lethal: p_lethal out of [0,1]";
  match d.kind with
  | Neg_binomial { mean; alpha } ->
      (* Koren-Koren-Stapper: thinning preserves the clustering parameter. *)
      if p_lethal = 0.0 then of_array [| 1.0 |]
      else negative_binomial ~mean:(mean *. p_lethal) ~alpha
  | Poisson { mean } ->
      if p_lethal = 0.0 then of_array [| 1.0 |] else poisson ~mean:(mean *. p_lethal)
  | Binomial { n; p } -> binomial ~n ~p:(p *. p_lethal)
  | Mixture { parts } ->
      (* Eq. (1) is linear in Q, so it commutes with mixing. *)
      mixture (List.map (fun (w, part) -> (w, lethal part ~p_lethal)) parts)
  | Custom _ -> lethal_generic d ~p_lethal ~tol:1e-12

let truncation_point d ~epsilon =
  if epsilon <= 0.0 then invalid_arg "Distribution.truncation_point: epsilon must be positive";
  if not (Float.is_finite epsilon) then
    invalid_arg
      (Printf.sprintf "Distribution.truncation_point: epsilon must be finite (got %g)"
         epsilon);
  let rec loop m mass =
    let mass = mass +. pmf d m in
    if mass >= 1.0 -. epsilon then m
    else if m >= 100_000 then
      invalid_arg
        (Printf.sprintf
           "Distribution.truncation_point: M for %s at epsilon %g is not \
            reached within 100000 terms"
           d.name epsilon)
    else loop (m + 1) mass
  in
  loop 0 0.0

let sampler d ~max_k =
  let cdf_table = Array.make (max_k + 2) 0.0 in
  let acc = ref 0.0 in
  for k = 0 to max_k do
    acc := !acc +. pmf d k;
    cdf_table.(k) <- !acc
  done;
  cdf_table.(max_k + 1) <- 1.0;
  cdf_table
