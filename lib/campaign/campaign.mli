(** Campaigns: named evaluation grids with stored, diffable results.

    A campaign is ROADMAP item 5's answer to "run the same grid every
    week and tell me what moved": a {!grid} names a cartesian product of
    benchmarks × λ × ε × orderings evaluated through
    {!Socy_batch.Pool.parallel_map}, {!run} executes it (budget
    failures land as typed rows, not exceptions), {!save}/{!load} round
    it through the {!Store} as a versioned [socyield-campaign/1]
    document, {!diff} compares any two runs through the shared
    {!Gates} table, and {!render_text}/{!render_html} aggregate a whole
    store into a trend report via {!Trend}.

    {!run} is the one grid runner: [socyield sweep], [tune] and
    [campaign run] and the bench's Table 2/3 and yield-curve sections all
    evaluate their grids through it. It builds on the direct route
    ({!Socy_core.Pipeline.route}) unless asked for the coded one, which
    the front ends that print ROBDD columns do.

    Probes: [campaign.runs] (counter), [campaign.wall_s] (gauge), and the
    per-point outcome counters [batch.jobs_ok], [batch.jobs_failed] and
    [batch.jobs_cancelled]. *)

val schema : string
(** ["socyield-campaign/1"] *)

type grid = {
  name : string;  (** store-directory prefix; no '/' allowed *)
  benchmarks : string list;  (** {!Socy_benchmarks.Suite.by_name} names *)
  lambdas : float list;
  epsilons : float list;
  mv_orders : Socy_order.Scheme.mv_order list;
  bit_order : Socy_order.Scheme.bit_order;
  alpha : float;
  node_limit : int;
  cpu_limit : float option;
  reorder : bool;
  par_domains : int;
}

type point = {
  source : string;
  lambda : float;
  epsilon : float;
  mv : Socy_order.Scheme.mv_order;
}

type failure_kind =
  | Node_budget_hit of int  (** live-node peak at failure *)
  | Cpu_budget_hit of float  (** elapsed CPU seconds at cut-off *)
  | Cancelled  (** batch wall budget expired before the job started *)

(** What a row's build measured, by route. *)
type build =
  | Coded of { robdd_peak : int; robdd_size : int }
      (** the coded ROBDD's peak and final size *)
  | Direct of { peak_nodes : int }
      (** the MDD nodes the direct route's APPLY created: its node peak,
          since the store frees none *)

type success = {
  m : int;
  yield_lower : float;
  yield_upper : float;
  build : build;
  romdd_size : int;
  cpu_s : float;
      (** the build's CPU seconds, or only the recombination's on a row
          that reused another point's build *)
  shared_with : string option;
      (** [Some label]: this row reused the build of the point whose
          {!point_label} is [label] (see {!run}); [None]: it was built
          itself *)
}

type row = { point : point; result : (success, failure_kind) result }

type t = {
  grid : grid;
  route : Socy_core.Pipeline.route;  (** the route every point built on *)
  created_s : float;  (** Unix time the run started *)
  domains : int;
  wall_s : float;
  rows : row list;  (** grid order: benchmarks × λ × ε × mv *)
}

val point_label : point -> string
(** ["MS4 l=10 e=0.001 wvr"] — the row key used in documents, diffs and
    reports. *)

val status_name : (success, failure_kind) result -> string
(** ["ok"], ["node-budget"], ["cpu-budget"] or ["cancelled"]. *)

val points : grid -> point list

val validate : ?route:Socy_core.Pipeline.route -> grid -> (unit, string) result
(** Reject empty axes, unknown benchmark names, names unusable as
    directory prefixes, an mv order that
    {!Socy_order.Scheme.check_pairing} does not allow beside the grid's
    bit order, and every value that
    {!Socy_defects.Distribution.negative_binomial} (per λ, with α) or
    {!Socy_core.Pipeline.Config.make} (per ε, with [route] — default
    [Direct] — the node and CPU limits, [reorder] and [par_domains]) or
    {!Socy_defects.Distribution.truncation_point} (per benchmark × λ × ε)
    rejects, with that function's message. *)

val run :
  ?route:Socy_core.Pipeline.route ->
  ?domains:int ->
  ?wall_budget:float ->
  ?progress:(completed:int -> total:int -> label:string -> unit) ->
  ?now:float ->
  grid ->
  (t, string) result
(** Evaluate the grid on [route] (default [Direct]: multiple-valued
    APPLY, no ROBDD; rows then carry [Direct] builds), building each
    distinct diagram once. Points of one
    benchmark whose {!Socy_core.Pipeline.build_key} is equal (the same M
    and resolved variable order, whatever their λ, ε or mv order) form a
    group, and each group is one {!Socy_core.Pipeline.run_family} job
    handed to {!Socy_batch.Pool.parallel_map} on [domains] workers
    (default {!Socy_batch.Pool.default_domains}), the groups in the grid
    order of their first members. The first member builds; every other
    member gets its own yields from the same sweep, bit for bit what its
    own build would give, the build's M, peaks and sizes, its own
    recombination's CPU time and [shared_with] set to the first member's
    label.

    [wall_budget] is the batch's wall-clock budget, checked as each group
    starts; the members of a group not started when it expires become
    [Cancelled] rows, and a group's budget failure becomes every member's
    row. [progress] is called on the worker domain once per point as its
    group settles, members in grid order, with that point's
    {!point_label} and [total] the number of points. Only grid validation
    fails; any other exception a point raises is re-raised after the
    batch. Nothing is kept between calls. *)

(** {1 Sequential equivalence} *)

type drift = {
  row_drifts : float option list;
      (** per row, |ΔY_M| between the two runs; [None] unless both are ok *)
  max_drift : float;  (** largest row drift, 0 when no row compares *)
  status_mismatches : int;  (** rows ok in one run and failed in the other *)
}

val sequential_rerun : t -> t * drift
(** Rerun [t]'s grid on [t.route] and one domain (a plain sequential
    loop), every point on its own build, and compare it with [t] row by
    row: the unshared
    reference for {!run}. A parallel, shared run must match its rerun bit
    for bit: [max_drift = 0.] and no status mismatch. Raises
    [Invalid_argument] when [t.grid] fails {!validate}, which a [t] from
    {!run} never does. *)

(** {1 Codec}

    A [socyield-campaign/1] document carries ["route": "direct"] for a
    direct campaign and no [route] member for a coded one, so documents
    written before routes existed load as coded and re-encode byte for
    byte. An ok row carries [robdd_peak] and [robdd_size] on the coded
    route and [peak_nodes] on the direct one. *)

val to_json : t -> Socy_obs.Json.t
val of_json : Socy_obs.Json.t -> (t, string) result
val of_string : string -> (t, string) result

(** {1 Store round trips} *)

val save :
  root:string ->
  ?metrics:Socy_obs.Json.t ->
  ?trace:Socy_obs.Json.t ->
  t ->
  Store.entry
(** Write the campaign (plus optional metrics/trace documents) as a new
    run in the store; the run id stamps [t.created_s]. *)

val load : Store.entry -> (t, string) result

val load_all : root:string -> ((string * t) list, string) result
(** Every run in the store as [(run id, campaign)], oldest first. *)

(** {1 Bench view} *)

val row_fields : row -> Gates.fields
(** The row's numeric result fields under their bench names
    ([yield_lower], [cpu_s], [robdd_peak] or [peak_nodes], ...), so the
    shared gate table applies unchanged. *)

val to_bench : t -> Socy_obs.Doc.Bench.t
(** The campaign as a [socyield-bench/1]-shaped document
    (section = campaign name, row = {!point_label}) — what lets
    {!Trend} and {!Gates.check_docs} consume campaign stores. *)

(** {1 Diffing} *)

type status_change = { sc_point : point; sc_old : string; sc_new : string }

type diff = {
  d_old : string;
  d_new : string;
  routes : (Socy_core.Pipeline.route * Socy_core.Pipeline.route) option;
      (** the old and the new run's routes, when they differ *)
  outcomes : Gates.outcome list;
  status_changes : status_change list;
}

val diff :
  ?gates:Gates.gate list ->
  old_label:string ->
  new_label:string ->
  t ->
  t ->
  diff
(** Compare two runs point by point: shared ok/ok points go through
    {!Gates.check_pair}; points whose status changed are collected
    separately; points present in only one run surface as
    {!Gates.Row_missing} / {!Gates.Row_new}. Runs on different routes
    (a store's coded runs before its direct ones) are compared on what
    both routes measure — M, the yields, the ROMDD size and [cpu_s] —
    and [routes] says so; the node counts of one route are not missing
    from the other. *)

val status_change_failed : status_change -> bool
(** An [ok -> failed] flip is a regression; [failed -> ok] is an
    improvement and never fails. *)

val diff_failed : diff -> bool

(** {1 Reports} *)

val trend_findings : (string * t) list -> Trend.finding list
(** Creep/missing-row findings over a store history (oldest first). *)

val render_text : runs:(string * t) list -> findings:Trend.finding list -> string
val render_html : runs:(string * t) list -> findings:Trend.finding list -> string
