(** Domain-pool scheduler for embarrassingly parallel job arrays.

    The paper's evaluation is batch-shaped: Tables 2–4 and the yield
    curves are hundreds of independent [(circuit, model, config)] pipeline
    runs, each of which owns every piece of mutable state it touches (its
    own {!Socy_bdd.Manager}, its own {!Socy_mdd.Mdd}). This module runs
    such job arrays across OCaml 5 domains:

    - a {e claim counter}: each worker takes the next job index with one
      [Atomic.fetch_and_add], so no lock or queue sits between the jobs
      and the domains;
    - {e deterministic result ordering}: slot [i] of the result array is
      job [i]'s outcome, regardless of which worker ran it or when it
      finished;
    - {e per-job failure isolation}: an exception marks that job [Failed]
      and the rest of the batch continues;
    - an optional {e wall-clock budget}: jobs not started when it expires
      are marked [Cancelled] (running jobs are never interrupted);
    - {!Socy_obs} aggregation: the [batch.jobs] counter, [batch.domains]
      and [batch.speedup] gauges, a [batch] span around the whole batch
      and one [batch.worker-k] span per worker — and, through
      {!Socy_obs.Trace}, a per-domain timeline: worker lifetime spans,
      per-[batch.job] spans carrying the job index and [batch.cancelled]
      instants.

    The submitting domain participates as worker 0, so
    [parallel_map ~domains:1] starts no domain at all and degenerates to a
    plain sequential loop in submission order — the reference execution
    that parallel runs are tested against, bit for bit. The other workers
    run on a process-wide {!Executor} that lives until exit: created on
    the first call that needs helpers and replaced by a wider one when a
    call needs more. A domain started and joined per call would leave its
    heap pinned by whatever it allocated that outlives the call (job
    results, what [on_done] keeps), since OCaml 5.1 does not compact. *)

(** Outcome of one job, in submission order. *)
type 'a outcome =
  | Done of 'a
  | Failed of exn  (** the job raised; the batch continued *)
  | Cancelled  (** the wall-clock budget expired before the job started *)

(** [Domain.recommended_domain_count ()] — the default worker count. *)
val default_domains : unit -> int

(** [parallel_map f xs] maps [f] over [xs] on [domains] workers
    (default {!default_domains}, clamped to the job count) and returns the
    outcomes in submission order. [wall_budget] is the batch's wall-clock
    budget in seconds, checked as each job starts.

    Each worker is one {!Executor.parallel_tasks} task, so the caller
    drains too, and a helper that starts late finds the claim counter
    spent: a [parallel_map] inside a job of another, or two concurrent
    calls from two threads, complete even when every helper domain is
    busy. Helpers run under the caller's request context
    ({!Socy_obs.Ctx}).

    [on_done i outcome] is called right after job [i] settles (including
    [Cancelled] jobs), {e on the worker domain that ran it} — it must be
    fast and thread-safe (an [Atomic] bump, a line of progress output
    under a mutex). An exception it raises stops that worker's claims and
    is re-raised in the caller once every worker has stopped.

    [f] must not share mutable state across jobs; everything it mutates
    must be created inside the call (the pipeline does this naturally —
    each run builds its own DD managers). *)
val parallel_map :
  ?domains:int ->
  ?wall_budget:float ->
  ?on_done:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array

(** {1 Long-lived pools}

    An {!Executor} keeps a fixed set of worker domains alive across
    submissions, consuming a thunk queue that any number of (sys)threads
    feed concurrently. [socyield serve] schedules every pipeline run on
    one of these, every {!Socy_bdd.Par} team runs its tasks on one, and
    {!parallel_map}'s helpers run on a process-wide one. Every domain
    the program starts is started here. *)

module Executor : sig
  (** A persistent pool of worker domains executing submitted thunks. *)
  type t

  (** [create ~domains ()] spawns [domains] worker domains (default
      [max 1 (default_domains () - 1)], leaving a core for the submitting
      threads) that block on an empty queue until work arrives or
      {!shutdown} is called. With [lifetime_span] (the default) each
      worker's lifetime is an [executor.worker-k] span; {!parallel_map}'s
      executor, which lives until exit, opens none. Raises
      [Invalid_argument] on [domains < 1]. *)
  val create : ?domains:int -> ?lifetime_span:bool -> unit -> t

  (** Number of worker domains the executor was created with. *)
  val domains : t -> int

  (** [run t f] enqueues [f], blocks the {e calling thread} until a worker
      has executed it, and returns its result. An exception raised by [f]
      is re-raised in the caller; it never kills the worker. Safe to call
      from any number of threads concurrently — results are matched to
      callers, never crossed. Raises [Invalid_argument] after
      {!shutdown}. *)
  val run : t -> (unit -> 'a) -> 'a

  (** [in_flight t] is the number of submitted thunks not yet completed
      (queued + running) — the admission-control and gauge feed. *)
  val in_flight : t -> int

  (** [parallel_tasks t tasks] runs every task exactly once and returns
      when all are done, re-raising the first task exception afterwards.
      Task 0 runs on the calling thread; the others are claimed from a
      shared counter, with the claim loop {!parallel_map} uses, by up to
      [domains t] helper drainers queued on the executor {e and by the
      calling thread}, which drains regardless — so completion is
      guaranteed even when the executor is saturated by enclosing jobs
      (the helpers then no-op). The caller's request context is
      re-installed around every drain. This is every {!Socy_bdd.Par}
      team's runner ([Par.spawn] creates an executor of its own, and
      [socyield serve] lends its batch executor) and {!parallel_map}'s.
      Each helper is one [executor.tasks] submission. *)
  val parallel_tasks : t -> (unit -> unit) array -> unit

  (** [shutdown t] closes the queue, lets the workers {e drain every
      already-submitted thunk}, and joins them; callers blocked in {!run}
      all receive their results first. Subsequent {!run} calls raise;
      subsequent [shutdown] calls are no-ops. *)
  val shutdown : t -> unit
end
