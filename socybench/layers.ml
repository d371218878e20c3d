(* The yield pipeline driven one layer at a time, for the traced run.

   This is the composition [Socy_core.Pipeline.run] performs, rebuilt from
   each layer's public functions so that every call sits in its own span.
   The ROMDD conversion layout is rebuilt here from the public [Problem]
   and [Scheme] fields. The arithmetic after the sweep (Theorem 1
   recombination) is the pipeline's own, operation for operation, so the
   yields are bit-identical to [Pipeline.run]. *)

module B = Socy_bdd.Manager
module Compile = Socy_bdd.Compile
module Par = Socy_bdd.Par
module Pbdd = Socy_bdd.Pbdd
module Mdd = Socy_mdd.Mdd
module Conversion = Socy_mdd.Conversion
module Problem = Socy_encode.Problem
module Scheme = Socy_order.Scheme
module Model = Socy_defects.Model
module P = Socy_core.Pipeline

let span = Spans.span

type result = {
  m : int;
  lethal : Model.lethal;
  yield_lower : float;
  yield_upper : float;
  p_unusable : float;
  cond_unusable : float array;  (* P(G = 1 | W = k), k = 0 .. m + 1 *)
  romdd_nodes : int;
  robdd_size : int;
  peak_nodes : int;  (* sequential build only *)
  created_nodes : int;  (* sequential build only *)
  par_created : int;  (* concurrent build only *)
  gates : int;
  num_binary_vars : int;
  num_groups : int;
  cache_hits : int;
  cache_misses : int;
  gc_runs : int;
}

let layout_of_scheme problem (scheme : Scheme.t) : Conversion.layout =
  let nvars = Problem.num_binary_vars problem in
  let num_groups = Problem.num_groups problem in
  let group_of_level =
    Array.init nvars (fun lv ->
        scheme.Scheme.group_position.(Problem.group_of_input problem
                                        scheme.Scheme.input_of_level.(lv)))
  in
  let levels_of_group =
    Array.init num_groups (fun pos ->
        List.filter (fun lv -> group_of_level.(lv) = pos) (List.init nvars Fun.id)
        |> Array.of_list)
  in
  let bit_at =
    Array.init nvars (fun lv ->
        Problem.bit_of_input problem scheme.Scheme.input_of_level.(lv))
  in
  let codeword pos value =
    let g = scheme.Scheme.groups_in_order.(pos) in
    let msb_first = Problem.codeword problem ~group:g ~value in
    Array.map (fun lv -> msb_first.(bit_at.(lv))) levels_of_group.(pos)
  in
  { Conversion.group_of_level; levels_of_group; codeword }

let mdd_specs problem (scheme : Scheme.t) =
  Array.map
    (fun g -> { Mdd.name = Problem.group_name problem g; Mdd.domain = Problem.domain problem g })
    scheme.Scheme.groups_in_order

(* One scenario per conditioning value of W, as in [Artifacts.sweep_layout]. *)
let sweep (scheme : Scheme.t) (lethal : Model.lethal) ~m mdd root =
  let nk = m + 2 in
  let p' = lethal.Model.component in
  let indicator =
    Array.init nk (fun v -> Array.init nk (fun k -> if k = v then 1.0 else 0.0))
  in
  let constant = Array.map (fun pj -> Array.make nk pj) p' in
  let p pos value =
    if scheme.Scheme.groups_in_order.(pos) = 0 then indicator.(value) else constant.(value)
  in
  span "mdd.sweep" (fun () -> Mdd.probability_sweep mdd root ~nk ~p)

let eval_lethal ~(config : P.config) circuit lethal =
  let m = span "defects.truncate" (fun () -> Model.truncation lethal ~epsilon:config.P.epsilon) in
  let problem = span "encode.build" (fun () -> Problem.build circuit ~m) in
  let scheme =
    span "order.make" (fun () ->
        Scheme.make problem ~mv:config.P.mv_order ~bits:config.P.bit_order)
  in
  let nvars = Problem.num_binary_vars problem in
  let var_of_input i = scheme.Scheme.level_of_input.(i) in
  let bdd =
    span "bdd.create" (fun () ->
        B.create ~node_limit:config.P.node_limit ~cache_bits:config.P.cache_bits
          ~num_vars:nvars ())
  in
  let par = config.P.par_domains in
  let team = if par > 1 then Some (span "pbdd.create" (fun () -> Par.spawn ~domains:par)) else None in
  let (_, st, par_created), mdd, mdd_root =
    Fun.protect
      ~finally:(fun () -> Option.iter (fun t -> span "pbdd.create" (fun () -> Par.shutdown t)) team)
      (fun () ->
        let built =
          match team with
          | None ->
              let root, st =
                span "bdd.compile" (fun () ->
                    Compile.of_circuit ~gc_threshold:config.P.gc_threshold bdd
                      problem.Problem.circuit ~var_of_input)
              in
              (root, st, 0)
          | Some team ->
              let pb =
                span "pbdd.create" (fun () ->
                    Pbdd.create ~node_limit:config.P.node_limit
                      ~cache_bits:config.P.cache_bits ~team ~num_vars:nvars ())
              in
              let root, st =
                span "pbdd.compile" (fun () ->
                    Compile.of_circuit_par pb bdd problem.Problem.circuit ~var_of_input)
              in
              (root, st, Pbdd.created pb)
        in
        let root, _, _ = built in
        let mdd = span "mdd.create" (fun () -> Mdd.create (mdd_specs problem scheme)) in
        let mdd_root =
          span "mdd.convert" (fun () ->
              Conversion.run ?team bdd root mdd (layout_of_scheme problem scheme))
        in
        (built, mdd, mdd_root))
  in
  let s = sweep scheme lethal ~m mdd mdd_root in
  let w = Model.w_pmf lethal ~m in
  let p_unusable = ref 0.0 in
  for k = 0 to m + 1 do
    p_unusable := !p_unusable +. (w.(k) *. s.(k))
  done;
  let p_unusable = !p_unusable in
  let yield_lower = 1.0 -. p_unusable in
  let engine = B.stats bdd in
  {
    m;
    lethal;
    yield_lower;
    yield_upper = yield_lower +. w.(m + 1);
    p_unusable;
    cond_unusable = s;
    romdd_nodes = Mdd.size mdd mdd_root;
    robdd_size = st.Compile.final_size;
    peak_nodes = (if team = None then st.Compile.peak_nodes else 0);
    created_nodes = (if team = None then st.Compile.created else 0);
    par_created;
    gates = Socy_logic.Circuit.gate_count problem.Problem.circuit;
    num_binary_vars = nvars;
    num_groups = Problem.num_groups problem;
    cache_hits = (if team = None then engine.B.cache_hits else 0);
    cache_misses = (if team = None then engine.B.cache_misses else 0);
    gc_runs = (if team = None then engine.B.gc_runs else 0);
  }

let eval ~config circuit model =
  span "pipeline.eval" (fun () ->
      let lethal = span "defects.lethal_map" (fun () -> Model.to_lethal model) in
      eval_lethal ~config circuit lethal)

(* The [Pipeline.report] the serve protocol encodes; timing and engine
   counter fields, which [Protocol.report_fields] never reads, stay 0. *)
let to_report r =
  {
    P.yield_lower = r.yield_lower;
    yield_upper = r.yield_upper;
    p_unusable = r.p_unusable;
    m = r.m;
    p_lethal = r.lethal.Model.p_lethal;
    cpu_seconds = 0.0;
    robdd_peak = r.peak_nodes;
    robdd_size = r.robdd_size;
    romdd_size = r.romdd_nodes;
    num_binary_vars = r.num_binary_vars;
    num_groups = r.num_groups;
    gate_count = r.gates;
    stage_times = [];
    unique_hits = 0;
    ite_cache_hits = r.cache_hits;
    ite_cache_misses = r.cache_misses;
    and_or_fast_hits = 0;
    gc_runs = r.gc_runs;
    gc_reclaimed = 0;
    reorder_runs = 0;
    reorder_swaps = 0;
    stage_gc = [];
  }

(* The traced run's count metrics, as means per evaluation. *)
let counts results =
  let n = float_of_int (max 1 (List.length results)) in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
  let hits = sum (fun r -> r.cache_hits) and misses = sum (fun r -> r.cache_misses) in
  [
    ("encode.gates", sum (fun r -> r.gates) /. n);
    ("bdd.peak_nodes", sum (fun r -> r.peak_nodes) /. n);
    ("bdd.created_nodes", sum (fun r -> r.created_nodes) /. n);
    ("bdd.cache_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("bdd.gc_runs", sum (fun r -> r.gc_runs) /. n);
    ("pbdd.created_nodes", sum (fun r -> r.par_created) /. n);
    ("mdd.romdd_nodes", sum (fun r -> r.romdd_nodes) /. n);
  ]
