(** The combinatorial yield-evaluation method, end to end.

    Given a fault tree F over component-failed variables and a defect model
    (Q, P_i), the pipeline follows the paper exactly:

    + map the model to its lethal form (Q′, P′_i) — Eq. (1);
    + pick the truncation M for the error requirement ε;
    + build the generalized fault tree G(w, v_1 … v_M) in binary logic
      (filter gates, minimal encodings) — {!Socy_encode.Problem};
    + choose the variable ordering (multiple-valued + per-group bits) —
      {!Socy_order.Scheme};
    + compile the binary circuit into a coded ROBDD — {!Socy_bdd};
    + convert the coded ROBDD into the ROMDD — {!Socy_mdd.Conversion};
    + evaluate P(G = 1) on the ROMDD by the probability traversal and
      report the yield band [Y_M, Y_M + ε].

    That is the {e coded} route. The {e direct} route ({!route}) replaces
    the two diagram steps with one: it builds the ROMDD by
    multiple-valued APPLY ({!Direct}), the construction the paper set
    aside as slower. ROMDDs are canonical per order and the traversal
    reads only their structure, so both routes give the same M, ROMDD size
    and yield bits; the direct route builds no ROBDD and reports none.

    The report carries the statistics of the paper's Table 4 — CPU time,
    ROBDD peak, final coded-ROBDD size, ROMDD size, yield — plus the
    observability extensions: per-stage wall times and the decision-diagram
    engine's table/cache/GC counters. When {!Socy_obs.Obs} is enabled the
    run is additionally traced (spans [pipeline/truncate] …
    [pipeline/traversal], nested engine spans, and the [bdd.*] counters and
    gauges); the report fields themselves are always populated and cost a
    handful of clock reads per run. *)

(** How the ROMDD is built. [Coded] (the paper's route, the default):
    compile the coded ROBDD, then convert it ([robdd-build],
    [romdd-convert]). [Direct]: multiple-valued APPLY into the ROMDD
    manager ([romdd-apply]), no ROBDD. *)
type route = Coded | Direct

(** ["coded"] or ["direct"]: the spelling of documents and flags. *)
val route_name : route -> string

val route_of_name : string -> route option

(** Run configuration, exposed as a plain-data record so callers can
    pattern-match, print, or serialize it. To {e construct} one, prefer
    {!Config.make} / the [Config.with_*] setters over record update
    syntax — the record has grown enough fields that
    [{ default_config with ... }] at every call site is noise, and the
    builder keeps call sites stable when the record grows again. *)
type config = {
  route : route;
      (** how the ROMDD is built (default [Coded]); [Direct] takes neither
          [reorder] nor [par_domains > 1], which work on the coded
          ROBDD *)
  epsilon : float;  (** absolute yield error bound ε (default 1e-3) *)
  mv_order : Socy_order.Scheme.mv_order;  (** default: weight ("w") *)
  bit_order : Socy_order.Scheme.bit_order;  (** default: ml *)
  node_limit : int;
      (** node budget, default 40 million: live coded-ROBDD nodes on the
          coded route, MDD nodes created ({!Socy_mdd.Mdd.create}) on the
          direct route *)
  gc_threshold : int;  (** dead nodes tolerated between GCs *)
  cache_bits : int;
      (** log2 of the cap on the ROBDD computed cache (1–28, default 21).
          The cache starts at 4096 lines and doubles whenever a miss finds
          more nodes in the store than it has lines, up to [2^cache_bits].
          The ROMDD manager's
          APPLY cache has the same cap; the conversion never calls APPLY,
          so only the direct route ({!Direct.build}) grows it. The
          size changes hit and miss counts only, never a result. *)
  cpu_limit : float option;
      (** CPU-seconds budget for the diagram build: the coded-ROBDD build,
          or the direct route's APPLY; exceeding it is reported as a
          failure, like the node budget *)
  reorder : bool;
      (** enable group-aware dynamic variable reordering (Rudell sifting)
          during the coded-ROBDD build. Bit-groups of each multiple-valued
          variable sift as contiguous units, and the order is walked back
          to the static scheme before the ROMDD conversion, so the yield
          is bit-identical to a reorder-free run — only the transient
          [robdd_peak] changes. Default [false]. *)
  par_domains : int;
      (** number of domains used {e inside} one evaluation. The coded
          ROBDD is always built on the sequential engine; a team of
          [par_domains > 1] then distributes each layer's codeword
          simulations of the ROMDD conversion ({!Socy_mdd.Conversion.run}),
          and the ROMDD is built in the sequential call order, so every
          report field, node ids included, is what [par_domains = 1]
          gives, timings apart. Combines with [reorder]: the order is
          walked back before the conversion starts. Default [1], no
          team. *)
  par_runner : Socy_bdd.Par.runner option;
      (** external work-distribution hook for the team conversion; when set
          (e.g. by [socyield serve], which re-uses its batch
          [Pool.Executor] domains), no second domain team is spawned.
          [None] (default): [par_domains > 1] spawns its own short-lived
          team for the run. *)
}

val default_config : config

(** Builder view of {!type-config}: every field optional, defaulting to
    {!default_config}; [with_*] setters compose with [|>]:

    {[
      Pipeline.Config.make ~epsilon:1e-4 ~mv_order:Scheme.Vw ()
      Pipeline.Config.(default |> with_node_limit 8_000_000)
    ]} *)
module Config : sig
  type t = config

  val default : t
  (** [= default_config]. *)

  val make :
    ?route:route ->
    ?epsilon:float ->
    ?mv_order:Socy_order.Scheme.mv_order ->
    ?bit_order:Socy_order.Scheme.bit_order ->
    ?node_limit:int ->
    ?gc_threshold:int ->
    ?cache_bits:int ->
    ?cpu_limit:float ->
    ?reorder:bool ->
    ?par_domains:int ->
    ?par_runner:Socy_bdd.Par.runner ->
    unit ->
    t
  (** Raises [Invalid_argument], naming the value, if [epsilon] is outside
      (0, 1), [node_limit < 1], [cpu_limit] is not positive and finite,
      [par_domains < 1] or [cache_bits] is outside 1–28, or if [route] is
      [Direct] with [reorder = true] or [par_domains > 1]. Every front end
      builds its configuration here, so these are the only range checks
      on these values. *)

  val with_route : route -> t -> t
  (** Raises [Invalid_argument] on [Direct] beside [reorder] or a team. *)

  val with_epsilon : float -> t -> t
  (** Raises [Invalid_argument] if the argument is outside (0, 1). *)

  val with_mv_order : Socy_order.Scheme.mv_order -> t -> t
  val with_bit_order : Socy_order.Scheme.bit_order -> t -> t

  val with_node_limit : int -> t -> t
  (** Raises [Invalid_argument] if the argument is [< 1]. *)

  val with_gc_threshold : int -> t -> t
  val with_cache_bits : int -> t -> t
  (** Raises [Invalid_argument] if the argument is outside 1–28. *)

  val with_cpu_limit : float option -> t -> t
  (** Takes the option so a budget can also be cleared. Raises
      [Invalid_argument] if the budget is not positive and finite. *)

  val with_reorder : bool -> t -> t
  (** Raises [Invalid_argument] on [true] under the direct route. *)

  val with_par_domains : int -> t -> t
  (** Raises [Invalid_argument] if the argument is [< 1], or [> 1] under
      the direct route. *)

  val with_par_runner : Socy_bdd.Par.runner option -> t -> t
  (** Takes the option so a runner can also be cleared. *)
end

type report = {
  yield_lower : float;  (** Y_M — the pessimistic estimate *)
  yield_upper : float;  (** Y_M plus the truncated tail mass (≤ Y_M + ε) *)
  p_unusable : float;  (** P(G = 1) = 1 − Y_M *)
  m : int;  (** truncation point M *)
  p_lethal : float;  (** P_L *)
  cpu_seconds : float;
      (** process CPU seconds of the build, its ROMDD traversal included *)
  robdd_peak : int;  (** the paper's "ROBDD peak"; 0 on the direct route *)
  robdd_size : int;  (** final coded ROBDD size; 0 on the direct route *)
  romdd_size : int;  (** ROMDD size *)
  num_binary_vars : int;
  num_groups : int;  (** M + 1 multiple-valued variables *)
  gate_count : int;  (** gates of the binary G description *)
  stage_times : (string * float) list;
      (** wall seconds per pipeline phase, in execution order:
          [lethal-map] (only via {!run}), [truncate], [encode], [order],
          then [robdd-build], [romdd-convert] on the coded route or
          [romdd-apply] on the direct one, then [traversal]. Populated
          whether or not observability is enabled. *)
  unique_hits : int;
      (** node requests answered by the unique table. This and the
          counters below are the coded ROBDD engine's: 0 on the direct
          route. *)
  ite_cache_hits : int;  (** computed-cache hits (ITE + AND/OR) during the build *)
  ite_cache_misses : int;  (** computed-cache misses (ITE + AND/OR) during the build *)
  and_or_fast_hits : int;
      (** AND/OR calls resolved by terminal/absorption fast paths, before
          the computed cache *)
  gc_runs : int;  (** garbage collections during the build *)
  gc_reclaimed : int;  (** dead nodes reclaimed by those collections *)
  reorder_runs : int;
      (** sift runs during the coded-ROBDD build (0 unless
          [config.reorder]) *)
  reorder_swaps : int;
      (** adjacent-level swaps those sift runs performed *)
  stage_gc : (string * Socy_obs.Memory.gc_delta) list;
      (** OCaml-GC delta per pipeline phase (same keys and order as
          [stage_times]) — minor/major collections, allocation volumes and
          heap sizes over that phase. Populated whether or not
          observability is enabled, like [stage_times]. *)
}

(** Why a run produced no report. One type shared by {!run},
    {!run_lethal} and {!Artifacts.build}, so consumers match on the
    constructor instead of sniffing a stage string:

    - [Node_budget]: a node creation would have pushed the live-node count
      past [config.node_limit] — the paper's "—" (excessive memory) entries.
      [peak] is the live-node peak at the moment the budget fired: ROBDD
      nodes at stage [coded-robdd], MDD nodes created at stage
      [romdd-apply].
    - [Cpu_budget]: the [config.cpu_limit] CPU-seconds budget ran out;
      [elapsed] is the CPU time the stage had consumed when it was cut off
      (under a parallel batch this is process CPU, so sibling jobs on other
      domains consume the budget too). *)
type failure =
  | Node_budget of { stage : string; peak : int }
  | Cpu_budget of { stage : string; elapsed : float }

(** The pipeline phase that failed. *)
val failure_stage : failure -> string

(** One-line rendering for CLIs and logs, e.g.
    ["coded-robdd: node budget exhausted (peak 15,000,123 nodes)"]. *)
val failure_to_string : failure -> string

(** [run ?config fault_tree model] evaluates the yield. [Error] reproduces
    the paper's "—" entries (node budget exhausted). *)
val run :
  ?config:config ->
  Socy_logic.Circuit.t ->
  Socy_defects.Model.t ->
  (report, failure) result

(** [run_lethal ?config fault_tree lethal] skips the Eq. (1) mapping when
    the caller already has the lethal model. *)
val run_lethal :
  ?config:config ->
  Socy_logic.Circuit.t ->
  Socy_defects.Model.lethal ->
  (report, failure) result

(** {1 Defect-model families}

    By Theorem 1 the diagram of G depends only on the circuit, M and the
    variable order; the victim distribution P′_i enters only the
    probability sweep, and the count distribution Q′ only the final sum
    Y_M = Σ_k Q′_k · P(G = 1 | W = k). Models that share the circuit, M,
    the order and P′_i are priced from one build and one sweep. *)

(** What a build depends on besides the circuit and the settings a
    campaign grid holds fixed (bit order, node and CPU limits, [reorder],
    [par_domains]): M and the variable order that
    {!Socy_order.Scheme.make} resolves the mv and bit orders to. The rest
    of a {!Socy_order.Scheme.t} is derived from these arrays or is a name,
    so configurations with equal keys build the same diagram node for
    node, whatever their mv order or ε (at [ml] bits, [t] and [h] resolve
    to [wv]'s order and [w] to [wvr]'s on the suite's circuits). Compare
    keys with [=]. *)
type build_key = {
  truncation : int;  (** M *)
  groups_in_order : int array;  (** position → group id *)
  input_of_level : int array;  (** BDD level → circuit input id *)
}

(** [build_key config fault_tree lethal] is the key of the build
    {!Artifacts.build} would make. It runs the truncation, encoding and
    ordering steps, but builds no diagram. Raises [Invalid_argument]
    where those steps do. *)
val build_key :
  config -> Socy_logic.Circuit.t -> Socy_defects.Model.lethal -> build_key

(** [build_keys jobs] is the {!build_key} of every [(config, fault_tree,
    lethal)] of [jobs], in order. It builds one problem per circuit and M,
    and resolves one order per circuit, M, mv order and bit order, where
    one {!build_key} call per job would build each time. Circuits are told
    apart physically ([==]), so jobs on one circuit must share the value.
    Raises [Invalid_argument] where {!build_key} does. *)
val build_keys :
  (config * Socy_logic.Circuit.t * Socy_defects.Model.lethal) array -> build_key array

(** What {!run_family} returns. *)
type family = {
  first : report;  (** the first model's report: {!run_lethal}'s *)
  members : report list;  (** one report per model of [rest], in order *)
  mdd_nodes : int;
      (** MDD nodes the build created, terminals included
          ({!Socy_mdd.Mdd.total_nodes}). The store frees none, so on the
          direct route this is the build's node peak, the counterpart of
          the coded route's [robdd_peak]. *)
}

(** [run_family ?config fault_tree first rest] builds and sweeps once for
    [first], inside one [pipeline] span, and returns [first]'s report,
    which is {!run_lethal}'s, with one report per model of [rest], in
    order. Every model of [rest] must have the victim distribution of
    [first] and, under its own configuration, the {!build_key} of [first]
    under [config]: the caller groups by key, and nothing here checks it.

    A member of [rest] reports its own yields, [p_unusable] and
    [p_lethal], bit for bit what its own build would give, since both go
    through the same recombination of the same sweep. Its M, sizes, peaks
    and engine counters are the build's; its [cpu_seconds] counts only
    its recombination, and its [stage_times] and [stage_gc] are empty,
    since it ran no stage. A budget failure of the build fails the whole
    family. *)
val run_family :
  ?config:config ->
  Socy_logic.Circuit.t ->
  Socy_defects.Model.lethal ->
  Socy_defects.Model.lethal list ->
  (family, failure) result

(** {1 Staged access}

    The benchmark harness needs the intermediate artifacts (Tables 2 and 3
    report ROMDD / coded-ROBDD sizes under various orderings); [Artifacts]
    exposes one fully built instance. *)

(** [layout_of_scheme problem scheme] is the conversion layout of the
    coded ROBDD that [problem] and [scheme] give: each BDD level's group
    position, each position's levels in increasing order, and every
    codeword re-aligned from most significant bit first to level order. *)
val layout_of_scheme :
  Socy_encode.Problem.t -> Socy_order.Scheme.t -> Socy_mdd.Conversion.layout

(** [mdd_specs problem scheme] are the ROMDD variables in [scheme]'s
    multiple-valued order: the manager {!Artifacts.build} converts or
    applies into. *)
val mdd_specs : Socy_encode.Problem.t -> Socy_order.Scheme.t -> Socy_mdd.Mdd.spec array

module Artifacts : sig
  (** The coded route's ROBDD: the manager, the root of G, and the build
      statistics. *)
  type robdd = {
    bdd : Socy_bdd.Manager.t;
    bdd_root : Socy_bdd.Manager.node;
    bdd_stats : Socy_bdd.Compile.stats;
  }

  type t = {
    problem : Socy_encode.Problem.t;
    scheme : Socy_order.Scheme.t;
    robdd : robdd option;  (** [None] on the direct route *)
    mdd : Socy_mdd.Mdd.t;
    mdd_root : Socy_mdd.Mdd.node;
    lethal : Socy_defects.Model.lethal;
    m : int;
    stage_seconds : (string * float) list;
        (** wall seconds of the build phases ([truncate] … [romdd-convert]
            or [romdd-apply], then [traversal]), in execution order. *)
    stage_gc : (string * Socy_obs.Memory.gc_delta) list;
        (** OCaml-GC deltas of the same build phases, same keys and order
            as [stage_seconds]. *)
    cond_unusable : float array;
        (** the single probability sweep,
            [| P(G=1 | W=0); …; P(G=1 | W=M+1) |]: {!report} and
            {!conditional_yields} both read it, so the ROMDD is traversed
            exactly once. *)
    romdd_size : int;
        (** nodes reachable from [mdd_root], terminals included
            ({!Socy_mdd.Mdd.size}), counted by the [traversal] stage's
            sweep. *)
  }

  (** Build everything up to the ROMDD on [config.route], then sweep it
      once (the [traversal] stage); [Error] on a node or CPU budget
      exhaustion. On the direct route the ROMDD manager carries the
      budgets; on the coded route the ROBDD engine does and the
      conversion's manager is unbudgeted. *)
  val build :
    ?config:config ->
    Socy_logic.Circuit.t ->
    Socy_defects.Model.lethal ->
    (t, failure) result

  (** The probability layout of the multiple-valued variables under the
      artifact's ordering: [p pos value] as consumed by
      {!Socy_mdd.Mdd.probability}. *)
  val probability_of_level : t -> int -> int -> float

  (** The vectorized layout of the same ordering, as consumed by
      {!Socy_mdd.Mdd.probability_sweep}: [(nk, p)] with [nk = m + 2]
      scenarios (one per conditioning value of W, the last being the
      aggregated tail) where scenario [k] pins W to [k] and leaves the
      victim variables at their unconditional pmf. Exposed for benchmarks
      and tests; {!build} sweeps with it. *)
  val sweep_layout : t -> int * (int -> int -> float array)

  (** Finish the evaluation: report assembly from the build's sweep, which
      [P(G = 1) = Σ_k Q′_k · P(G = 1 | W = k)] recombines per Theorem 1,
      in the same function {!run_family} prices its members with. *)
  val report : t -> cpu_seconds:float -> report

  (** [victim_sensitivities t] is the exact gradient
      [| ∂Y_M/∂P′_0; …; ∂Y_M/∂P′_(C-1) |], treating the victim-distribution
      entries P′_i as independent parameters (summed over the M defect
      variables via the ROMDD sensitivity sweep). A large negative…
      positive spread pinpoints the components whose lethality drives the
      yield — the analytic counterpart of {!Importance.yield_gain}, at the
      cost of a single traversal. *)
  val victim_sensitivities : t -> float array

  (** [conditional_yields t] is [| Y_0; …; Y_M |]: the exact conditional
      yields P(functioning | k lethal defects) of Section 2, read from the
      build's {!Socy_mdd.Mdd.probability_sweep} — all k in the {e same}
      single traversal that {!report} uses, not one traversal per k.
      Together with any count distribution Q′ they reconstruct
      Y_M = Σ_k Q′_k · Y_k — so one ROMDD prices a whole family of defect
      models sharing the victim distribution. *)
  val conditional_yields : t -> float array
end
