(* Committed expected results of the Table 4 rows the benchmark solves,
   under the default configuration (ε = 1e-3, orderings w + ml).

   [yield_lower] is Y_M as this implementation computes it; the six light
   rows agree with BENCH_quick.json within 1e-12. [paper] is the yield the
   paper's Table 4 prints. The MS rows reproduce it within 0.002 once
   rounded to its three printed digits (0.0025 unrounded); the ESEN
   rows do not, because the paper's ESEN P_i ratios are unreadable in the
   scan and the reconstruction differs (EXPERIMENTS.md, "Table 4"), so
   only MS rows are held to the paper. *)

type row = {
  bench : string;
  lambda : float;
  m : int;
  yield_lower : float;
  romdd : int;
  robdd_peak : int;
  paper : float;
}

let rows =
  [
    { bench = "MS2"; lambda = 10.0; m = 6; yield_lower = 0x1.e42c24a8afad2p-1; romdd = 2034; robdd_peak = 30_150; paper = 0.944 };
    { bench = "MS4"; lambda = 10.0; m = 6; yield_lower = 0x1.eeb17609339cp-1; romdd = 22760; robdd_peak = 380_233; paper = 0.965 };
    { bench = "MS2"; lambda = 20.0; m = 10; yield_lower = 0x1.aa06e3a50d5c6p-1; romdd = 7534; robdd_peak = 123_192; paper = 0.830 };
    { bench = "ESEN4x1"; lambda = 10.0; m = 6; yield_lower = 0x1.ea1ee55c7a567p-1; romdd = 3046; robdd_peak = 21_962; paper = 0.910 };
    { bench = "ESEN4x2"; lambda = 10.0; m = 6; yield_lower = 0x1.d867f93a806dap-1; romdd = 6994; robdd_peak = 69_188; paper = 0.848 };
    { bench = "ESEN4x1"; lambda = 20.0; m = 10; yield_lower = 0x1.b87f31b65511ap-1; romdd = 11666; robdd_peak = 116_946; paper = 0.756 };
    { bench = "ESEN4x4"; lambda = 10.0; m = 6; yield_lower = 0x1.bb125dbb6472p-1; romdd = 19547; robdd_peak = 214_375; paper = 0.829 };
    { bench = "ESEN4x2"; lambda = 20.0; m = 10; yield_lower = 0x1.8c00b90523b28p-1; romdd = 30782; robdd_peak = 459_192; paper = 0.642 };
  ]

let label r = Printf.sprintf "%s, l'=%g" r.bench (r.lambda *. Socy_benchmarks.Suite.p_lethal)

(* The rows table4-par runs: at least 100k peak ROBDD nodes. *)
let heavy = List.filter (fun r -> r.robdd_peak >= 100_000) rows

let is_ms r = String.length r.bench >= 2 && String.sub r.bench 0 2 = "MS"

(* [None] when the result is right, else why not. *)
let mismatch r ~m ~yield_lower ~romdd =
  if m <> r.m then Some (Printf.sprintf "%s: M = %d, expected %d" (label r) m r.m)
  else if romdd <> r.romdd then
    Some (Printf.sprintf "%s: ROMDD %d nodes, expected %d" (label r) romdd r.romdd)
  else if Float.abs (yield_lower -. r.yield_lower) > 1e-12 then
    Some (Printf.sprintf "%s: yield %h (%.15f), expected %h" (label r) yield_lower yield_lower r.yield_lower)
  else if is_ms r && Float.abs (yield_lower -. r.paper) > 0.0025 then
    Some (Printf.sprintf "%s: yield %.4f is not the paper's %.3f" (label r) yield_lower r.paper)
  else None
