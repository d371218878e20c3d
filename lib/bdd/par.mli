(** Domain team for intra-problem parallelism.

    [run team tasks] executes every task exactly once, distributing them
    over the team's domains (the calling domain participates) through a
    shared claim counter, and returns when all are done. The first task
    exception is re-raised in the caller after the job drains. *)

type t

type runner = (unit -> unit) array -> unit
(** External work-distribution hook: must run every thunk to completion
    before returning (the caller may participate). *)

val spawn : domains:int -> t
(** A team of [domains] total participants, backed by a
    [Socy_batch.Pool.Executor] of [domains - 1] workers; the caller of
    {!run} is the last participant. [domains = 1] starts no domain and
    {!run} is a plain loop. *)

val of_runner : domains:int -> runner -> t
(** A team backed by an external runner (e.g. [Pool.Executor] workers in
    [socyield serve]); spawns no domains, {!shutdown} is a no-op.
    [domains] is advisory — it sizes work splitting, not the runner. *)

val domains : t -> int

val run : t -> (unit -> unit) array -> unit
(** Not reentrant: tasks must not call {!run} on their own team. *)

val shutdown : t -> unit
(** Join the spawned domains. Idempotent; no-op for runner teams. *)
