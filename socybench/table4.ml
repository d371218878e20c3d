(* table4-cold and table4-par: the paper's Table 4 rows, each solved cold
   by one caller, in a seed-shuffled order per pass: a fresh pipeline run
   per row, on a heap compacted off the clock beforehand, as [socyield
   eval] in a fresh process would see it. table4-par runs the heavy rows
   with a 2-domain team inside each evaluation. *)

module P = Socy_core.Pipeline
module S = Socy_benchmarks.Suite
module Prng = Socy_util.Prng
open Measure

type input = { row : Expected.row; circuit : Socy_logic.Circuit.t; model : Socy_defects.Model.t }

let inputs rows =
  List.map
    (fun (r : Expected.row) ->
      let instance = S.by_name r.Expected.bench in
      let model =
        S.model { S.instance; lambda = r.Expected.lambda; lambda_lethal = r.Expected.lambda *. S.p_lethal }
      in
      { row = r; circuit = instance.S.circuit; model })
    rows
  |> Array.of_list

type variant = { rows : Expected.row list; par_domains : int }

let cold = { rows = Expected.rows; par_domains = 1 }
let par = { rows = Expected.heavy; par_domains = 2 }
(* What the workload starts: the main domain, which evaluates, plus the
   [par_domains - 1] workers [Par.spawn] adds to each evaluation's team. *)
let usage v = [ ("domains", 1 + (v.par_domains - 1)); ("systhreads", 0); ("connections", 0) ]
let config v = P.Config.make ~par_domains:v.par_domains ()

let check_row tally (inp : input) ~m ~yield_lower ~romdd =
  match Expected.mismatch inp.row ~m ~yield_lower ~romdd with
  | None -> check tally true ""
  | Some why -> check tally false why

(* Set-up: build the circuits and models, then one warm-up evaluation of
   the smallest row, so that lazy initialisation is not timed. *)
let setup v () =
  let ins = inputs v.rows in
  let warm = inputs [ List.hd Expected.rows ] in
  ignore (P.run ~config:(config v) warm.(0).circuit warm.(0).model);
  ins

(* Off the clock: table4-par must be bit-identical to the sequential
   engine, row by row. [timed] maps a row label to the yield and ROMDD
   size of its last timed evaluation. *)
let check_against_sequential tally v ins timed =
  if v.par_domains > 1 then
    Array.iter
      (fun inp ->
        let label = Expected.label inp.row in
        match (P.run inp.circuit inp.model, Hashtbl.find_opt timed label) with
        | Ok s, Some (y, romdd) ->
            verify tally
              (Int64.equal (Int64.bits_of_float s.P.yield_lower) (Int64.bits_of_float y) && s.P.romdd_size = romdd)
              (Printf.sprintf "%s: par yield %h / ROMDD %d, sequential %h / %d" label y romdd
                 s.P.yield_lower s.P.romdd_size)
        | _ -> verify tally false (label ^ ": no result to compare"))
      ins

(* One pass: every row once, in a seed-shuffled order, each on a heap
   compacted off the clock. [eval] returns the row's result check. Returns
   the (row, seconds) samples of the pass. *)
let pass rng ins eval =
  Array.to_list (shuffle rng ins)
  |> List.map (fun inp ->
         Gc.compact ();
         let t0 = now () in
         let check_result = eval inp in
         let dt = now () -. t0 in
         check_result ();
         (Expected.label inp.row, dt))

let summarize samples = (List.length samples, List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 samples)

let untraced v ~seed ~seconds tally =
  let ins, first_setup = timed_setup (setup v) in
  let rng = Prng.create (Int64.of_int seed) in
  let samples = ref [] and rates = ref [] and timed = Hashtbl.create 8 in
  let eval inp =
    let r = P.run ~config:(config v) inp.circuit inp.model in
    fun () ->
      match r with
      | Ok r ->
          Hashtbl.replace timed (Expected.label inp.row) (r.P.yield_lower, r.P.romdd_size);
          check_row tally inp ~m:r.P.m ~yield_lower:r.P.yield_lower ~romdd:r.P.romdd_size
      | Error f -> check tally false (P.failure_to_string f)
  in
  let passes =
    run_passes ~seconds (fun _ ->
        let s = pass rng ins eval in
        (* One caller: a pass's rate is rows per second spent evaluating. *)
        rates := summarize s :: !rates;
        samples := s @ !samples)
  in
  check_against_sequential tally v ins timed;
  let setups = first_setup :: more_setups 8 ~setup:(setup v) ~teardown:ignore in
  let ms = List.map (fun (k, dt) -> (k, dt *. 1e3)) !samples in
  {
    Report.setup = setups;
    rates = !rates;
    rss_peaks = List.map (fun p -> p.rss_peak) passes;
    samples = List.length ms;
    mean_ms = mean (List.map snd ms);
    latencies = per_key_medians ms;
    hits = None;
    misses = None;
  }

let traced v ~seed ~seconds tally =
  let ins = setup v () in
  let rng = Prng.create (Int64.of_int seed) in
  let results = ref [] and id = ref 0 and rates = ref [] and gc = ref gc_zero in
  let eval inp =
    incr id;
    let r =
      gc_window gc (fun () -> Spans.with_eval !id (fun () -> Layers.eval ~config:(config v) inp.circuit inp.model))
    in
    results := r :: !results;
    fun () -> check_row tally inp ~m:r.Layers.m ~yield_lower:r.Layers.yield_lower ~romdd:r.Layers.romdd_nodes
  in
  Spans.recording := true;
  ignore (run_passes ~seconds (fun _ -> rates := summarize (pass rng ins eval) :: !rates));
  Spans.recording := false;
  {
    Report.evals = List.length !results;
    throughput = median_rate !rates;
    baseline = None;
    gc = !gc;
    extra = Layers.counts !results;
    other_layers_ms = 0.0;
  }
