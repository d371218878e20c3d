(* A domain team for intra-problem parallelism: a width and a runner.

   [spawn] backs the team with a [Socy_batch.Pool.Executor] of
   [domains - 1] workers and hands every task array to its
   [parallel_tasks], whose claim counter the caller drains beside the
   workers. [of_runner] wraps an external runner instead, which is how
   [socyield serve] lends its own executor; it spawns nothing. *)

module Executor = Socy_batch.Pool.Executor

type runner = (unit -> unit) array -> unit
type t = { width : int; call : runner; pool : Executor.t option }

let check fn domains =
  if domains < 1 then invalid_arg ("Par." ^ fn ^ ": domains must be >= 1")

(* The one-domain team: every task runs once, in order, on the caller;
   the first exception is re-raised after the last task. *)
let sequential tasks =
  let failure = ref None in
  Array.iter
    (fun f -> try f () with e -> if !failure = None then failure := Some e)
    tasks;
  Option.iter raise !failure

let spawn ~domains =
  check "spawn" domains;
  if domains = 1 then { width = 1; call = sequential; pool = None }
  else
    let pool = Executor.create ~domains:(domains - 1) () in
    { width = domains; call = Executor.parallel_tasks pool; pool = Some pool }

let of_runner ~domains call =
  check "of_runner" domains;
  { width = domains; call; pool = None }

let domains t = t.width
let run t tasks = if Array.length tasks > 0 then t.call tasks
let shutdown t = Option.iter Executor.shutdown t.pool
