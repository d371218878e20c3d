module C = Socy_logic.Circuit
module B = Socy_bdd.Manager
module Par = Socy_bdd.Par
module Compile = Socy_bdd.Compile
module Mdd = Socy_mdd.Mdd
module Conversion = Socy_mdd.Conversion
module Problem = Socy_encode.Problem
module Scheme = Socy_order.Scheme
module Model = Socy_defects.Model
module Distribution = Socy_defects.Distribution
module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Log = Socy_obs.Log
module Json = Socy_obs.Json
module Memory = Socy_obs.Memory

type route = Coded | Direct

let route_name = function Coded -> "coded" | Direct -> "direct"

let route_of_name = function
  | "coded" -> Some Coded
  | "direct" -> Some Direct
  | _ -> None

type config = {
  route : route;
  epsilon : float;
  mv_order : Scheme.mv_order;
  bit_order : Scheme.bit_order;
  node_limit : int;
  gc_threshold : int;
  cache_bits : int;
  cpu_limit : float option;
  reorder : bool;
  par_domains : int;
  par_runner : Par.runner option;
}

let default_config =
  {
    route = Coded;
    epsilon = 1e-3;
    mv_order = Scheme.Heur Socy_order.Heuristics.Weight;
    bit_order = Scheme.Ml;
    node_limit = 40_000_000;
    gc_threshold = 2_000_000;
    cache_bits = 21;
    cpu_limit = None;
    reorder = false;
    par_domains = 1;
    par_runner = None;
  }

module Config = struct
  type t = config

  let default = default_config

  (* Every range rule, applied by [make] and by the setters of the values
     it covers; [fn] names the caller in the message. *)
  let check fn c =
    let invalid fmt =
      Printf.ksprintf (fun m -> invalid_arg ("Config." ^ fn ^ ": " ^ m)) fmt
    in
    if not (c.epsilon > 0.0 && c.epsilon < 1.0) then
      invalid "epsilon must lie in (0, 1) (got %g)" c.epsilon;
    if c.node_limit < 1 then
      invalid "node_limit must be >= 1 (got %d)" c.node_limit;
    (match c.cpu_limit with
    | Some s when not (Float.is_finite s && s > 0.0) ->
        invalid "cpu_limit must be positive and finite (got %g)" s
    | _ -> ());
    if c.par_domains < 1 then
      invalid "par_domains must be >= 1 (got %d)" c.par_domains;
    if c.cache_bits < 1 || c.cache_bits > 28 then
      invalid "cache_bits must be in 1..28 (got %d)" c.cache_bits;
    (* Sifting and the domain team work on the coded ROBDD, which the
       direct route never builds. *)
    if c.route = Direct && c.reorder then
      invalid "route = direct does not take reorder = true (sifting reorders the coded ROBDD)";
    if c.route = Direct && c.par_domains > 1 then
      invalid "route = direct does not take par_domains = %d (the team converts the coded ROBDD)"
        c.par_domains;
    c

  let make ?(route = default.route) ?(epsilon = default.epsilon) ?(mv_order = default.mv_order)
      ?(bit_order = default.bit_order) ?(node_limit = default.node_limit)
      ?(gc_threshold = default.gc_threshold) ?(cache_bits = default.cache_bits)
      ?cpu_limit ?(reorder = default.reorder)
      ?(par_domains = default.par_domains) ?par_runner () =
    check "make"
      {
        route;
        epsilon;
        mv_order;
        bit_order;
        node_limit;
        gc_threshold;
        cache_bits;
        cpu_limit;
        reorder;
        par_domains;
        par_runner;
      }

  let with_route route c = check "with_route" { c with route }
  let with_epsilon epsilon c = check "with_epsilon" { c with epsilon }
  let with_mv_order mv_order c = { c with mv_order }
  let with_bit_order bit_order c = { c with bit_order }
  let with_node_limit node_limit c = check "with_node_limit" { c with node_limit }
  let with_gc_threshold gc_threshold c = { c with gc_threshold }
  let with_cache_bits cache_bits c = check "with_cache_bits" { c with cache_bits }
  let with_cpu_limit cpu_limit c = check "with_cpu_limit" { c with cpu_limit }
  let with_reorder reorder c = check "with_reorder" { c with reorder }

  let with_par_domains par_domains c =
    check "with_par_domains" { c with par_domains }

  let with_par_runner par_runner c = { c with par_runner }
end

type report = {
  yield_lower : float;
  yield_upper : float;
  p_unusable : float;
  m : int;
  p_lethal : float;
  cpu_seconds : float;
  robdd_peak : int;
  robdd_size : int;
  romdd_size : int;
  num_binary_vars : int;
  num_groups : int;
  gate_count : int;
  stage_times : (string * float) list;
  unique_hits : int;
  ite_cache_hits : int;
  ite_cache_misses : int;
  and_or_fast_hits : int;
  gc_runs : int;
  gc_reclaimed : int;
  reorder_runs : int;
  reorder_swaps : int;
  stage_gc : (string * Memory.gc_delta) list;
}

type failure =
  | Node_budget of { stage : string; peak : int }
  | Cpu_budget of { stage : string; elapsed : float }

(* M and the resolved variable order: the rest of [Scheme.t] is derived
   from these two arrays or is a name. *)
type build_key = {
  truncation : int;
  groups_in_order : int array;
  input_of_level : int array;
}

(* A key needs the problem of its circuit at M and the order resolved on
   it. Jobs that share a circuit and M share the problem, and those that
   also share the mv and bit orders share the order; a grid holds few of
   each, so association lists do. *)
let build_keys jobs =
  let problems = ref [] and schemes = ref [] in
  let problem fault_tree m =
    match List.find_opt (fun (c, m', _) -> c == fault_tree && m' = m) !problems with
    | Some (_, _, p) -> p
    | None ->
        let p = Problem.build fault_tree ~m in
        problems := (fault_tree, m, p) :: !problems;
        p
  in
  let scheme problem ~mv ~bits =
    match
      List.find_opt (fun (p, mv', bits', _) -> p == problem && mv' = mv && bits' = bits) !schemes
    with
    | Some (_, _, _, s) -> s
    | None ->
        let s = Scheme.make problem ~mv ~bits in
        schemes := (problem, mv, bits, s) :: !schemes;
        s
  in
  Array.map
    (fun (config, fault_tree, lethal) ->
      let m = Model.truncation lethal ~epsilon:config.epsilon in
      let scheme =
        scheme (problem fault_tree m) ~mv:config.mv_order ~bits:config.bit_order
      in
      {
        truncation = m;
        groups_in_order = scheme.Scheme.groups_in_order;
        input_of_level = scheme.Scheme.input_of_level;
      })
    jobs

let build_key config fault_tree lethal = (build_keys [| (config, fault_tree, lethal) |]).(0)

(* Theorem 1: P(G = 1) = Σ_k Q'_k · P(G = 1 | W = k) over the sweep's
   slots k = 0 … M + 1, the last being W's aggregated tail, whose mass is
   also the band's width. Every report's yields come from here. *)
let recombine lethal ~m sweep =
  let w = Model.w_pmf lethal ~m in
  let p_unusable = ref 0.0 in
  for k = 0 to m + 1 do
    p_unusable := !p_unusable +. (w.(k) *. sweep.(k))
  done;
  let yield_lower = 1.0 -. !p_unusable in
  (!p_unusable, yield_lower, yield_lower +. w.(m + 1))

let failure_stage = function
  | Node_budget { stage; _ } | Cpu_budget { stage; _ } -> stage

let failure_to_string = function
  | Node_budget { stage; peak } ->
      Printf.sprintf "%s: node budget exhausted (peak %s nodes)" stage
        (Socy_util.Text_table.group_thousands peak)
  | Cpu_budget { stage; elapsed } ->
      Printf.sprintf "%s: cpu budget exhausted after %.1f s" stage elapsed

(* The conversion layout induced by a problem and an ordering scheme:
   BDD level -> group position, positions -> contiguous level blocks, and
   codewords re-aligned from most-significant-first to level order. *)
let layout_of_scheme problem (scheme : Scheme.t) : Conversion.layout =
  let nvars = Problem.num_binary_vars problem in
  let num_groups = Problem.num_groups problem in
  let group_of_level =
    Array.init nvars (fun lv ->
        let input = scheme.Scheme.input_of_level.(lv) in
        scheme.Scheme.group_position.(Problem.group_of_input problem input))
  in
  let levels_of_group = Array.make num_groups [||] in
  for pos = 0 to num_groups - 1 do
    let levels = ref [] in
    for lv = nvars - 1 downto 0 do
      if group_of_level.(lv) = pos then levels := lv :: !levels
    done;
    levels_of_group.(pos) <- Array.of_list !levels
  done;
  (* bit index (msb-first) of each level position within its group *)
  let bit_at = Array.make nvars (-1) in
  Array.iter
    (Array.iter (fun lv ->
         bit_at.(lv) <- Problem.bit_of_input problem scheme.Scheme.input_of_level.(lv)))
    levels_of_group;
  let codeword pos value =
    let g = scheme.Scheme.groups_in_order.(pos) in
    let msb_first = Problem.codeword problem ~group:g ~value in
    Array.map (fun lv -> msb_first.(bit_at.(lv))) levels_of_group.(pos)
  in
  { Conversion.group_of_level; levels_of_group; codeword }

let mdd_specs problem (scheme : Scheme.t) =
  Array.map
    (fun g ->
      {
        Mdd.name = Problem.group_name problem g;
        Mdd.domain = Problem.domain problem g;
      })
    scheme.Scheme.groups_in_order

module Artifacts = struct
  type robdd = { bdd : B.t; bdd_root : B.node; bdd_stats : Compile.stats }

  type t = {
    problem : Problem.t;
    scheme : Scheme.t;
    robdd : robdd option;
    mdd : Mdd.t;
    mdd_root : Mdd.node;
    lethal : Model.lethal;
    m : int;
    stage_seconds : (string * float) list;
    stage_gc : (string * Memory.gc_delta) list;
    cond_unusable : float array;
    romdd_size : int;
  }

  (* Wall-clock a pipeline phase: always feeds [stage_seconds] and
     [stage_gc] (cheap — two clock reads, two Gc.quick_stat reads), and
     doubles as a timeline span + Obs aggregate for the trace. *)
  let staged stages gcs name f =
    let t0 = Obs.now () in
    let s0 = Memory.sample () in
    let r = Trace.with_span name f in
    let d = Memory.delta_since s0 in
    Memory.publish ~stage:name d;
    let dt = Obs.now () -. t0 in
    stages := (name, dt) :: !stages;
    gcs := (name, d) :: !gcs;
    if Log.enabled_for Log.Debug then
      Log.debug "pipeline.stage"
        ~fields:[ ("stage", Json.String name); ("seconds", Json.Float dt) ]
        (Printf.sprintf "stage %s done in %.6f s" name dt);
    r

  (* The typed failures of a diagram stage's budget trips, logged as
     [pipeline.budget]: [peak] is the node count at the trip, [cpu0] the
     CPU clock when the budgeted manager was made. *)
  let node_budget config ~stage peak =
    Log.warn "pipeline.budget"
      ~fields:
        [
          ("kind", Json.String "node");
          ("stage", Json.String stage);
          ("peak", Json.Int peak);
          ("node_limit", Json.Int config.node_limit);
        ]
      (Printf.sprintf "node budget exhausted at %d nodes" peak);
    Error (Node_budget { stage; peak })

  let cpu_budget ~stage ~cpu0 =
    let elapsed = Sys.time () -. cpu0 in
    Log.warn "pipeline.budget"
      ~fields:
        [
          ("kind", Json.String "cpu");
          ("stage", Json.String stage);
          ("elapsed_s", Json.Float elapsed);
        ]
      (Printf.sprintf "cpu budget exhausted after %.1f s" elapsed);
    Error (Cpu_budget { stage; elapsed })

  (* One scenario per conditioning value of W: k = 0 .. m are the
     truncated defect counts, k = m + 1 the aggregated tail. Scenario k
     pins W to k (an indicator vector on the W group) and leaves the
     victim variables at their unconditional pmf, so slot k of the sweep
     is P(G = 1 | W = k). *)
  let layout (scheme : Scheme.t) (lethal : Model.lethal) ~m =
    let nk = m + 2 in
    let p' = lethal.Model.component in
    let indicator = Array.init nk (fun v -> Array.init nk (fun k -> if k = v then 1.0 else 0.0)) in
    let constant = Array.map (fun pj -> Array.make nk pj) p' in
    let p pos value =
      let g = scheme.Scheme.groups_in_order.(pos) in
      if g = 0 then indicator.(value) else constant.(value)
    in
    (nk, p)

  (* The coded route: compile the binary circuit into the coded ROBDD on
     the sequential engine, then convert it into an unbudgeted ROMDD
     manager. *)
  let build_coded config ~stages ~gcs problem scheme =
    let staged name f = staged stages gcs name f in
    let cpu0 = Sys.time () in
    let nvars = Problem.num_binary_vars problem in
    let bdd =
      B.create ~node_limit:config.node_limit ?cpu_limit:config.cpu_limit
        ~cache_bits:config.cache_bits ~num_vars:nvars ()
    in
    match
      staged "robdd-build" (fun () ->
          let var_of_input i = scheme.Scheme.level_of_input.(i) in
          if config.reorder then
            (* Manager variable [v] encodes circuit input
               [scheme.input_of_level.(v)]; tagging it with that input's
               multiple-valued group makes sifting move whole w/v bit
               blocks, which the ROMDD conversion layout requires. *)
            B.set_groups bdd
              (Array.init nvars (fun v ->
                   Problem.group_of_input problem scheme.Scheme.input_of_level.(v)));
          let root, st =
            Compile.of_circuit ~gc_threshold:config.gc_threshold
              ~reorder:config.reorder bdd problem.Problem.circuit ~var_of_input
          in
          if config.reorder then begin
            (* Walk the order back to the scheme's static layout so the
               ROMDD conversion (and therefore the yield) is bit-identical
               to a reorder-free run; sifting only bounded the transient
               peak. The walk-back obeys the same node budget, and its
               transient counts: peak and final size are re-captured after
               it so reorder runs report what actually happened. *)
            B.set_order bdd (Array.init nvars Fun.id);
            ( root,
              {
                st with
                Compile.peak_nodes = B.peak_alive bdd;
                final_size = B.size bdd root;
              } )
          end
          else (root, st))
    with
    | exception B.Node_limit_exceeded ->
        node_budget config ~stage:"coded-robdd" (B.peak_alive bdd)
    | exception B.Cpu_limit_exceeded -> cpu_budget ~stage:"coded-robdd" ~cpu0
    | bdd_root, bdd_stats ->
        let mdd = Mdd.create ~cache_bits:config.cache_bits (mdd_specs problem scheme) in
        (* A team only converts: it reads the finished ROBDD, in the
           static order, layer by layer. It is lent by the caller or
           spawned here, and a spawned one is joined on every exit path. *)
        let team =
          if config.par_domains <= 1 then None
          else
            Some
              (match config.par_runner with
              | Some call -> Par.of_runner ~domains:config.par_domains call
              | None -> Par.spawn ~domains:config.par_domains)
        in
        let mdd_root =
          Fun.protect
            ~finally:(fun () -> Option.iter Par.shutdown team)
            (fun () ->
              staged "romdd-convert" (fun () ->
                  Conversion.run ?team bdd bdd_root mdd (layout_of_scheme problem scheme)))
        in
        B.publish_obs bdd;
        Ok (Some { bdd; bdd_root; bdd_stats }, mdd, mdd_root)

  (* The direct route: G by multiple-valued APPLY into a budgeted ROMDD
     manager; no ROBDD exists. *)
  let build_direct config ~stages ~gcs problem scheme =
    let staged name f = staged stages gcs name f in
    let cpu0 = Sys.time () in
    let mdd =
      Mdd.create ~node_limit:config.node_limit ?cpu_limit:config.cpu_limit
        ~cache_bits:config.cache_bits (mdd_specs problem scheme)
    in
    match staged "romdd-apply" (fun () -> Direct.build mdd problem scheme) with
    | exception Mdd.Node_limit_exceeded ->
        node_budget config ~stage:"romdd-apply" (Mdd.total_nodes mdd)
    | exception Mdd.Cpu_limit_exceeded -> cpu_budget ~stage:"romdd-apply" ~cpu0
    | mdd_root -> Ok (None, mdd, mdd_root)

  let build ?(config = default_config) fault_tree lethal =
    let stages = ref [] in
    let gcs = ref [] in
    let staged name f = staged stages gcs name f in
    let m =
      staged "truncate" (fun () -> Model.truncation lethal ~epsilon:config.epsilon)
    in
    let problem = staged "encode" (fun () -> Problem.build fault_tree ~m) in
    let scheme =
      staged "order" (fun () ->
          Scheme.make problem ~mv:config.mv_order ~bits:config.bit_order)
    in
    let built =
      match config.route with
      | Coded -> build_coded config ~stages ~gcs problem scheme
      | Direct -> build_direct config ~stages ~gcs problem scheme
    in
    Result.map
      (fun (robdd, mdd, mdd_root) ->
        (* The single ROMDD traversal behind [report] and
           [conditional_yields]: P(G = 1 | W = k) for every k at once. The
           size walk runs in the same stage, so [cpu_seconds] counts it. *)
        let nk, p = layout scheme lethal ~m in
        let cond_unusable, romdd_size =
          staged "traversal" (fun () ->
              (Mdd.probability_sweep mdd mdd_root ~nk ~p, Mdd.size mdd mdd_root))
        in
        Mdd.publish_obs mdd;
        {
          problem;
          scheme;
          robdd;
          mdd;
          mdd_root;
          lethal;
          m;
          stage_seconds = List.rev !stages;
          stage_gc = List.rev !gcs;
          cond_unusable;
          romdd_size;
        })
      built

  let probability_of_level t =
    let w = Model.w_pmf t.lethal ~m:t.m in
    let p' = t.lethal.Model.component in
    fun pos value ->
      let g = t.scheme.Scheme.groups_in_order.(pos) in
      if g = 0 then w.(value) else p'.(value)

  let victim_sensitivities t =
    (* For M = 0 there are no victim variables: zero gradient. *)
    if t.m = 0 then Array.make t.problem.Problem.num_components 0.0
    else begin
      let _, sens =
        Mdd.probability_with_sensitivities t.mdd t.mdd_root
          ~p:(probability_of_level t)
      in
      let c = Problem.domain t.problem 1 in
      Array.init c (fun i ->
          let acc = ref 0.0 in
          for pos = 0 to Problem.num_groups t.problem - 1 do
            if t.scheme.Scheme.groups_in_order.(pos) <> 0 then
              acc := !acc +. sens.(pos).(i)
          done;
          (* Y = 1 - P(G = 1) *)
          -. !acc)
    end

  let sweep_layout t = layout t.scheme t.lethal ~m:t.m

  let conditional_yields t =
    Array.init (t.m + 1) (fun k -> 1.0 -. t.cond_unusable.(k))

  let report t ~cpu_seconds =
    let p_unusable, yield_lower, yield_upper =
      recombine t.lethal ~m:t.m t.cond_unusable
    in
    (* The direct route ran no ROBDD engine: its ROBDD figures and engine
       counters are 0; a campaign row on it carries none of them. *)
    let robdd f = match t.robdd with Some r -> f r | None -> 0 in
    let engine = Option.map (fun r -> B.stats r.bdd) t.robdd in
    let engine f = match engine with Some e -> f e | None -> 0 in
    {
      yield_lower;
      yield_upper;
      p_unusable;
      m = t.m;
      p_lethal = t.lethal.Model.p_lethal;
      cpu_seconds;
      robdd_peak = robdd (fun r -> r.bdd_stats.Compile.peak_nodes);
      robdd_size = robdd (fun r -> r.bdd_stats.Compile.final_size);
      romdd_size = t.romdd_size;
      num_binary_vars = Problem.num_binary_vars t.problem;
      num_groups = Problem.num_groups t.problem;
      gate_count = C.gate_count t.problem.Problem.circuit;
      stage_times = t.stage_seconds;
      unique_hits = engine (fun e -> e.B.unique_hits);
      ite_cache_hits = engine (fun e -> e.B.cache_hits);
      ite_cache_misses = engine (fun e -> e.B.cache_misses);
      and_or_fast_hits = engine (fun e -> e.B.and_or_fast_hits);
      gc_runs = engine (fun e -> e.B.gc_runs);
      gc_reclaimed = engine (fun e -> e.B.reclaimed);
      reorder_runs = robdd (fun r -> r.bdd_stats.Compile.reorders);
      reorder_swaps = robdd (fun r -> r.bdd_stats.Compile.reorder_swaps);
      stage_gc = t.stage_gc;
    }
end

type family = { first : report; members : report list; mdd_nodes : int }

let run_family ?(config = default_config) fault_tree first rest =
  let t0 = Sys.time () in
  Trace.with_span "pipeline" (fun () ->
      match Artifacts.build ~config fault_tree first with
      | Error f -> Error f
      | Ok artifacts ->
          let r = Artifacts.report artifacts ~cpu_seconds:(Sys.time () -. t0) in
          let s = artifacts.Artifacts.cond_unusable in
          (* The build's M, sizes, peaks and counters are every member's;
             only the count distribution differs. *)
          let member lethal =
            let t1 = Sys.time () in
            let p_unusable, yield_lower, yield_upper =
              recombine lethal ~m:r.m s
            in
            {
              r with
              yield_lower;
              yield_upper;
              p_unusable;
              p_lethal = lethal.Model.p_lethal;
              cpu_seconds = Sys.time () -. t1;
              stage_times = [];
              stage_gc = [];
            }
          in
          Ok
            {
              first = r;
              members = List.map member rest;
              mdd_nodes = Mdd.total_nodes artifacts.Artifacts.mdd;
            })

let run_lethal ?config fault_tree lethal =
  Result.map (fun f -> f.first) (run_family ?config fault_tree lethal [])

let run ?(config = default_config) fault_tree model =
  let t0 = Obs.now () in
  let lethal, lethal_gc =
    Memory.with_gc_delta (fun () ->
        Trace.with_span "lethal-map" (fun () -> Model.to_lethal model))
  in
  let lethal_s = Obs.now () -. t0 in
  Memory.publish ~stage:"lethal-map" lethal_gc;
  Result.map
    (fun r ->
      {
        r with
        stage_times = ("lethal-map", lethal_s) :: r.stage_times;
        stage_gc = ("lethal-map", lethal_gc) :: r.stage_gc;
      })
    (run_lethal ~config fault_tree lethal)
