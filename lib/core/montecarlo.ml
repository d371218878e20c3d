module C = Socy_logic.Circuit
module Model = Socy_defects.Model
module Distribution = Socy_defects.Distribution
module Prng = Socy_util.Prng
module Stats = Socy_util.Stats

type result = {
  estimate : float;
  ci_low : float;
  ci_high : float;
  trials : int;
  functioning : int;
}

let count_cdf lethal =
  (* Extend the table until virtually all mass is covered. *)
  let d = lethal.Model.count in
  let rec horizon k mass =
    if mass >= 1.0 -. 1e-12 || k > 10_000 then k
    else horizon (k + 1) (mass +. Distribution.pmf d k)
  in
  Distribution.sampler d ~max_k:(horizon 0 0.0)

let component_cdf lethal =
  let p = lethal.Model.component in
  let cdf = Array.make (Array.length p) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i pi ->
      acc := !acc +. pi;
      cdf.(i) <- !acc)
    p;
  cdf

let run ?(seed = 42L) ?(trials = 100_000) fault_tree lethal =
  if trials <= 0 then
    invalid_arg
      (Printf.sprintf "Montecarlo.run: trials must be positive (got %d)" trials);
  let rng = Prng.create seed in
  let k_cdf = count_cdf lethal in
  let c_cdf = component_cdf lethal in
  let num_components = Array.length lethal.Model.component in
  if fault_tree.C.num_inputs <> num_components then
    invalid_arg "Montecarlo.run: fault tree / model component mismatch";
  let failed = Array.make num_components false in
  let functioning = ref 0 in
  for _ = 1 to trials do
    Array.fill failed 0 num_components false;
    let k = Prng.categorical rng ~cdf:k_cdf in
    for _ = 1 to k do
      failed.(Prng.categorical rng ~cdf:c_cdf) <- true
    done;
    if not (C.eval fault_tree (fun i -> failed.(i))) then incr functioning
  done;
  let ci_low, ci_high = Stats.wilson95 ~successes:!functioning ~trials in
  {
    estimate = float_of_int !functioning /. float_of_int trials;
    ci_low;
    ci_high;
    trials;
    functioning = !functioning;
  }
