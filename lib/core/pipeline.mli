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

    The report carries the statistics of the paper's Table 4 — CPU time,
    ROBDD peak, final coded-ROBDD size, ROMDD size, yield — plus the
    observability extensions: per-stage wall times and the decision-diagram
    engine's table/cache/GC counters. When {!Socy_obs.Obs} is enabled the
    run is additionally traced (spans [pipeline/truncate] …
    [pipeline/traversal], nested engine spans, and the [bdd.*] counters and
    gauges); the report fields themselves are always populated and cost a
    handful of clock reads per run. *)

(** Run configuration, exposed as a plain-data record so callers can
    pattern-match, print, or serialize it. To {e construct} one, prefer
    {!Config.make} / the [Config.with_*] setters over record update
    syntax — the record has grown enough fields that
    [{ default_config with ... }] at every call site is noise, and the
    builder keeps call sites stable when the record grows again. *)
type config = {
  epsilon : float;  (** absolute yield error bound ε (default 1e-3) *)
  mv_order : Socy_order.Scheme.mv_order;  (** default: weight ("w") *)
  bit_order : Socy_order.Scheme.bit_order;  (** default: ml *)
  node_limit : int;  (** live-BDD-node budget; default 40 million *)
  gc_threshold : int;  (** dead nodes tolerated between GCs *)
  cache_bits : int;  (** log2 of the ITE computed-cache size *)
  cpu_limit : float option;
      (** CPU-seconds budget for the coded-ROBDD build; exceeding it is
          reported as a failure, like the node budget *)
  reorder : bool;
      (** enable group-aware dynamic variable reordering (Rudell sifting)
          during the coded-ROBDD build. Bit-groups of each multiple-valued
          variable sift as contiguous units, and the order is walked back
          to the static scheme before the ROMDD conversion, so the yield
          is bit-identical to a reorder-free run — only the transient
          [robdd_peak] changes. Default [false]. *)
  par_domains : int;
      (** number of domains used {e inside} one evaluation: the coded-ROBDD
          build runs on {!Socy_bdd.Pbdd} (sharded concurrent unique table,
          frontier-split APPLY) and the ROMDD conversion distributes each
          layer's codeword simulations, with the finished diagram imported
          into the ordinary sequential manager — so results, node ids
          included, are bit-identical to the sequential engine's.
          [1] (the default) is the pure sequential path, byte-for-byte the
          code that has always run. Ignored (sequential build) when
          [reorder] is also set: in-place sifting and the append-only
          concurrent store are mutually exclusive, and reorder wins. *)
  par_runner : Socy_bdd.Par.runner option;
      (** external work-distribution hook for the parallel build; when set
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
  (** Raises [Invalid_argument] if [par_domains < 1]. *)

  val with_epsilon : float -> t -> t
  val with_mv_order : Socy_order.Scheme.mv_order -> t -> t
  val with_bit_order : Socy_order.Scheme.bit_order -> t -> t
  val with_node_limit : int -> t -> t
  val with_gc_threshold : int -> t -> t
  val with_cache_bits : int -> t -> t

  val with_cpu_limit : float option -> t -> t
  (** Takes the option so a budget can also be cleared. *)

  val with_reorder : bool -> t -> t

  val with_par_domains : int -> t -> t
  (** Raises [Invalid_argument] if the argument is [< 1]. *)

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
  robdd_peak : int;  (** the paper's "ROBDD peak" *)
  robdd_size : int;  (** final coded ROBDD size *)
  romdd_size : int;  (** ROMDD size *)
  num_binary_vars : int;
  num_groups : int;  (** M + 1 multiple-valued variables *)
  gate_count : int;  (** gates of the binary G description *)
  stage_times : (string * float) list;
      (** wall seconds per pipeline phase, in execution order:
          [lethal-map] (only via {!run}), [truncate], [encode], [order],
          [robdd-build], [romdd-convert], [traversal]. Populated whether or
          not observability is enabled. *)
  unique_hits : int;  (** node requests answered by the unique table *)
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

(** Why a run produced no report. One type shared by {!run}, {!run_lethal}
    and [Socy_batch.run_batch], so consumers match on the
    constructor instead of sniffing a stage string:

    - [Node_budget]: a node creation would have pushed the live-node count
      past [config.node_limit] — the paper's "—" (excessive memory) entries.
      [peak] is the live-node peak at the moment the budget fired.
    - [Cpu_budget]: the [config.cpu_limit] CPU-seconds budget ran out;
      [elapsed] is the CPU time the stage had consumed when it was cut off
      (under a parallel batch this is process CPU, so sibling jobs on other
      domains consume the budget too).
    - [Batch_cancelled]: the job never ran — its batch's wall-clock budget
      expired first (only produced by [run_batch]). *)
type failure =
  | Node_budget of { stage : string; peak : int }
  | Cpu_budget of { stage : string; elapsed : float }
  | Batch_cancelled

(** The pipeline phase that failed (["batch"] for [Batch_cancelled]). *)
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

(** {1 Staged access}

    The benchmark harness needs the intermediate artifacts (Tables 2 and 3
    report ROMDD / coded-ROBDD sizes under various orderings); [Artifacts]
    exposes one fully built instance. *)

module Artifacts : sig
  type t = {
    problem : Socy_encode.Problem.t;
    scheme : Socy_order.Scheme.t;
    bdd : Socy_bdd.Manager.t;
    bdd_root : Socy_bdd.Manager.node;
    bdd_stats : Socy_bdd.Compile.stats;
    mdd : Socy_mdd.Mdd.t;
    mdd_root : Socy_mdd.Mdd.node;
    lethal : Socy_defects.Model.lethal;
    m : int;
    stage_seconds : (string * float) list;
        (** wall seconds of the build phases ([truncate] … [romdd-convert]),
            in execution order; {!report} appends the traversal time. *)
    stage_gc : (string * Socy_obs.Memory.gc_delta) list;
        (** OCaml-GC deltas of the same build phases, same keys and order
            as [stage_seconds]. *)
    mutable cond_unusable : float array option;
        (** memo of the single probability sweep:
            [| P(G=1 | W=0); …; P(G=1 | W=M+1) |] once {!report} or
            {!conditional_yields} has run. Both read it, so together they
            traverse the ROMDD exactly once. *)
    mutable traversal_gc : Socy_obs.Memory.gc_delta option;
        (** GC delta of the memoized sweep, recorded alongside
            [cond_unusable]; {!report} appends it to its [stage_gc]. *)
  }

  (** Build everything up to the ROMDD; [Error] on node-budget exhaustion. *)
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
      and tests; {!report} / {!conditional_yields} use it internally. *)
  val sweep_layout : t -> int * (int -> int -> float array)

  (** Finish the evaluation: probability sweep + report assembly. The sweep
      result is memoized on the artifacts (see {!type-t}), and
      [P(G = 1) = Σ_k Q′_k · P(G = 1 | W = k)] recombines it per Theorem 1
      — one ROMDD traversal however often report/conditional yields are
      read. *)
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
      memoized {!Socy_mdd.Mdd.probability_sweep} — all k in the {e same}
      single traversal that {!report} uses, not one traversal per k.
      Together with any count distribution Q′ they reconstruct
      Y_M = Σ_k Q′_k · Y_k — so one ROMDD prices a whole family of defect
      models sharing the victim distribution. *)
  val conditional_yields : t -> float array
end
