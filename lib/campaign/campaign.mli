(** Campaigns: named evaluation grids with stored, diffable results.

    A campaign is ROADMAP item 5's answer to "run the same grid every
    week and tell me what moved": a {!grid} names a cartesian product of
    benchmarks × λ × ε × orderings evaluated through
    {!Socy_batch.run_batch}, {!run} executes it (budget
    failures land as typed rows, not exceptions), {!save}/{!load} round
    it through the {!Store} as a versioned [socyield-campaign/1]
    document, {!diff} compares any two runs through the shared
    {!Gates} table, and {!render_text}/{!render_html} aggregate a whole
    store into a trend report via {!Trend}.

    {!run} is the one grid runner: [socyield sweep], [tune] and
    [campaign run] and the bench's Table 2/3 and yield-curve sections all
    evaluate their grids through it.

    Probes: [campaign.runs] (counter), [campaign.wall_s] (gauge); per-point
    outcomes are the batch's [batch.jobs_*] counters. *)

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

type success = {
  m : int;
  yield_lower : float;
  yield_upper : float;
  robdd_peak : int;
  robdd_size : int;
  romdd_size : int;
  cpu_s : float;
}

type row = { point : point; result : (success, failure_kind) result }

type t = {
  grid : grid;
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

val validate : grid -> (unit, string) result
(** Reject empty axes, unknown benchmark names, names unusable as
    directory prefixes, and values the defect model or the pipeline
    cannot take: a non-finite or non-positive λ or α, an ε outside
    (0, 1), a node limit below 1 and a non-positive CPU limit. *)

val run :
  ?domains:int ->
  ?wall_budget:float ->
  ?progress:(completed:int -> total:int -> label:string -> unit) ->
  ?now:float ->
  grid ->
  (t, string) result
(** Evaluate the grid. [domains] defaults to
    {!Socy_batch.Pool.default_domains}; [progress] is forwarded to
    {!Socy_batch.run_batch} (called on worker domains as each point
    settles). Only grid validation fails; per-point budget exhaustion
    becomes a failed {!row}. *)

(** {1 Sequential equivalence} *)

type drift = {
  row_drifts : float option list;
      (** per row, |ΔY_M| between the two runs; [None] unless both are ok *)
  max_drift : float;  (** largest row drift, 0 when no row compares *)
  status_mismatches : int;  (** rows ok in one run and failed in the other *)
}

val sequential_rerun : t -> t * drift
(** Rerun [t]'s grid on one domain (a plain sequential loop) and compare
    it with [t] row by row. A parallel run must match its rerun bit for
    bit: [max_drift = 0.] and no status mismatch. Raises
    [Invalid_argument] when [t.grid] fails {!validate}, which a [t] from
    {!run} never does. *)

(** {1 Codec} *)

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
    ([yield_lower], [cpu_s], [robdd_peak], ...), so the shared gate
    table applies unchanged. *)

val to_bench : t -> Socy_obs.Doc.Bench.t
(** The campaign as a [socyield-bench/1]-shaped document
    (section = campaign name, row = {!point_label}) — what lets
    {!Trend} and {!Gates.check_docs} consume campaign stores. *)

(** {1 Diffing} *)

type status_change = { sc_point : point; sc_old : string; sc_new : string }

type diff = {
  d_old : string;
  d_new : string;
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
    {!Gates.Row_missing} / {!Gates.Row_new}. *)

val status_change_failed : status_change -> bool
(** An [ok -> failed] flip is a regression; [failed -> ok] is an
    improvement and never fails. *)

val diff_failed : diff -> bool

(** {1 Reports} *)

val trend_findings : (string * t) list -> Trend.finding list
(** Creep/missing-row findings over a store history (oldest first). *)

val render_text : runs:(string * t) list -> findings:Trend.finding list -> string
val render_html : runs:(string * t) list -> findings:Trend.finding list -> string
