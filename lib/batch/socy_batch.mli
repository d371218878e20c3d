(** Multicore batch evaluation: the domain {!Pool} and {!run_batch}, the
    entry point that evaluates many independent
    [(circuit, lethal model, config)] pipeline jobs at once.

    {!Socy_campaign.Campaign.run} is the one caller that turns a grid into
    jobs; everything else evaluates grids through it.

    Ownership model: a job shares {e nothing} mutable with its siblings.
    Each pipeline run builds its own {!Socy_bdd.Manager} and
    {!Socy_mdd.Mdd} inside {!Socy_core.Pipeline.Artifacts.build}, so the
    worker domains never touch a common decision diagram, unique table or
    cache — the only cross-domain state is the thread-safe {!Socy_obs}
    registry the engines publish into. That is what makes the paper-style
    sweeps embarrassingly parallel. *)

module Pool = Pool

(** One batch job: an independent pipeline run. The [label] is carried for
    consumers that render results (it does not influence evaluation). *)
type job = {
  label : string;
  circuit : Socy_logic.Circuit.t;
  lethal : Socy_defects.Model.lethal;
  config : Socy_core.Pipeline.config;
}

(** [job circuit lethal] with [?config] defaulting to
    {!Socy_core.Pipeline.Config.default} and an empty label. *)
val job :
  ?config:Socy_core.Pipeline.config ->
  ?label:string ->
  Socy_logic.Circuit.t ->
  Socy_defects.Model.lethal ->
  job

(** [run_batch jobs] evaluates every job and returns the per-job results
    {e in submission order}, whatever the completion order was — so
    [List.combine jobs (run_batch jobs)] always lines up, and
    [run_batch ~domains:1 jobs] (a plain sequential loop) returns a
    bit-identical list.

    [domains] defaults to [Domain.recommended_domain_count ()]. Each
    worker evaluates one job at a time with exclusive ownership of that
    job's DD state. A job that exhausts its node or CPU budget lands as
    [Error (Node_budget _ | Cpu_budget _)] and the batch continues; when
    the optional [wall_budget] (seconds of wall clock for the whole batch)
    expires, jobs not yet started land as [Error Batch_cancelled] while
    already-running jobs finish normally. Any other exception escaping a
    job is re-raised on the submitting domain after all workers joined.

    [progress ~completed ~total ~label] is called after each job settles
    ([label] is that job's label, [completed] the number settled so far) —
    {e on the worker domain that ran the job}, concurrently with other
    workers; keep it fast and thread-safe (the CLI prints one status line
    under a mutex). Omitted = no callback, zero overhead.

    Observability: workers run under [batch.worker-k] spans, the engines'
    counters from all domains merge into the process-wide registry as
    usual, and the batch publishes [batch.jobs]/[batch.jobs_ok]/
    [batch.jobs_failed]/[batch.jobs_cancelled] counters plus the
    [batch.domains] and [batch.speedup] (Σ per-job busy seconds / batch
    wall seconds) gauges. With {!Socy_obs.Obs.enabled} set, the whole batch
    is additionally recorded on the {!Socy_obs.Trace} timeline — one row
    per domain with worker/job/dequeue spans (see {!Pool.parallel_map}). *)
val run_batch :
  ?domains:int ->
  ?wall_budget:float ->
  ?progress:(completed:int -> total:int -> label:string -> unit) ->
  job list ->
  (Socy_core.Pipeline.report, Socy_core.Pipeline.failure) result list
