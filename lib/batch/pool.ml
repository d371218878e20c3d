module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Json = Socy_obs.Json
module Ctx = Socy_obs.Ctx

type 'a outcome = Done of 'a | Failed of exn | Cancelled

let default_domains () = Domain.recommended_domain_count ()

(* The claim loop both schedulers share: take the next index in [0, n)
   from [next] with one fetch-and-add and run [work] on it, until the
   counter is spent. Any number of domains may run it on one counter;
   each index goes to exactly one of them. Returns how many indices this
   caller ran. *)
let claim_loop next n work =
  let rec go did =
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then did
    else begin
      work i;
      go (did + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Persistent executor                                                 *)
(* ------------------------------------------------------------------ *)

module Executor = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    tasks : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable live : int;  (* submitted, not yet completed *)
    mutable workers : unit Domain.t array;
    n_domains : int;
  }

  let tasks_counter = Obs.counter "executor.tasks"

  let create ?domains ?(lifetime_span = true) () =
    let n =
      match domains with
      | Some d when d < 1 -> invalid_arg "Executor.create: domains < 1"
      | Some d -> d
      | None -> max 1 (default_domains () - 1)
    in
    let t =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        tasks = Queue.create ();
        closed = false;
        live = 0;
        workers = [||];
        n_domains = n;
      }
    in
    let rec loop () =
      Mutex.lock t.mutex;
      let rec take () =
        match Queue.take_opt t.tasks with
        | Some task -> Some task
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.nonempty t.mutex;
              take ()
            end
      in
      let task = take () in
      Mutex.unlock t.mutex;
      match task with
      | None -> ()
      | Some f ->
          f ();
          loop ()
    in
    let worker k () =
      if lifetime_span then
        Trace.with_span (Printf.sprintf "executor.worker-%d" k) loop
      else loop ()
    in
    t.workers <- Array.init n (fun k -> Domain.spawn (worker k));
    t

  let domains t = t.n_domains
  let in_flight t =
    Mutex.lock t.mutex;
    let n = t.live in
    Mutex.unlock t.mutex;
    n

  (* Queue [task] for the workers. The task calls [settle] once its work
     is done, before it wakes anyone, so a woken caller never counts its
     own run as in flight. *)
  let submit t ~caller task =
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg ("Executor." ^ caller ^ ": executor is shut down")
    end;
    t.live <- t.live + 1;
    Queue.push task t.tasks;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex;
    Obs.incr tasks_counter

  let settle t =
    Mutex.lock t.mutex;
    t.live <- t.live - 1;
    Mutex.unlock t.mutex

  let run t f =
    (* Each submission carries its own result cell; the worker fills it
       and signals, the caller sleeps on it. Exceptions travel in the
       cell, so a raising thunk surfaces in its caller, not the worker.
       The submitter's ambient request context is captured here and
       re-installed around the body, so spans and log records emitted on
       the worker domain stay attributed to the submitting request. *)
    let ctx = Ctx.get () in
    let cell_mutex = Mutex.create () in
    let cell_done = Condition.create () in
    let result = ref None in
    submit t ~caller:"run" (fun () ->
        let r = (try Ok (Ctx.with_restored ctx f) with e -> Error e) in
        settle t;
        Mutex.lock cell_mutex;
        result := Some r;
        Condition.signal cell_done;
        Mutex.unlock cell_mutex);
    Mutex.lock cell_mutex;
    while Option.is_none !result do
      Condition.wait cell_done cell_mutex
    done;
    Mutex.unlock cell_mutex;
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false

  let parallel_tasks t tasks =
    let n = Array.length tasks in
    if n > 0 then begin
      (* Shared claim counter + caller participation: the caller drains
         the counter itself, so every task completes even when all worker
         domains are busy with other submissions — the helper drainers
         then find the counter spent and no-op. This is what lets
         [socyield serve] point {!Socy_bdd.Par.of_runner} at the batch
         executor without risking a saturation deadlock. Task 0 is the
         caller's, claimed before any helper is queued. *)
      let next = Atomic.make 1 in
      let cell_mutex = Mutex.create () in
      let cell_done = Condition.create () in
      let completed = ref 0 in
      let failure = ref None in
      (* Helper drainers run on worker domains; re-install the caller's
         request context around the whole drain so intra-problem spans
         (parallel APPLY, layer conversion) carry the request id. *)
      let ctx = Ctx.get () in
      let run i =
        try tasks.(i) ()
        with e ->
          Mutex.lock cell_mutex;
          if !failure = None then failure := Some e;
          Mutex.unlock cell_mutex
      in
      let drain ~first () =
        Ctx.with_restored ctx @@ fun () ->
        if first then run 0;
        let did = claim_loop next n run + Bool.to_int first in
        if did > 0 then begin
          Mutex.lock cell_mutex;
          completed := !completed + did;
          if !completed = n then Condition.broadcast cell_done;
          Mutex.unlock cell_mutex
        end
      in
      let helpers = min t.n_domains (n - 1) in
      (* A concurrent shutdown between submissions is not an error for the
         caller: it drains everything itself either way. *)
      (try
         for _ = 1 to helpers do
           submit t ~caller:"parallel_tasks" (fun () ->
               drain ~first:false ();
               settle t)
         done
       with Invalid_argument _ -> ());
      drain ~first:true ();
      Mutex.lock cell_mutex;
      while !completed < n do
        Condition.wait cell_done cell_mutex
      done;
      Mutex.unlock cell_mutex;
      match !failure with Some e -> raise e | None -> ()
    end

  let shutdown t =
    Mutex.lock t.mutex;
    let first = not t.closed in
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if first then Array.iter Domain.join t.workers
end

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

(* The batch helpers' executor: created on the first call that needs
   helpers, replaced by a wider one when a call needs more, never shrunk,
   and shut down at exit with the ones it replaced, which stay parked
   until then: a job running on one of them may be the very call that
   outgrew it. A domain joined after each call would leave its heap
   pinned by every value it allocated that outlives the call (results,
   what [on_done] keeps), and OCaml 5.1 does not compact; a kept domain
   reuses its heap. Its workers open no lifetime span, which would stay
   open until exit. *)
let batch_lock = Mutex.create ()
let batch_pools : Executor.t list ref = ref [] (* the widest first *)

let shutdown_batch_pools () =
  if Domain.is_main_domain () then begin
    Mutex.lock batch_lock;
    let pools = !batch_pools in
    batch_pools := [];
    Mutex.unlock batch_lock;
    List.iter Executor.shutdown pools
  end

let () = at_exit shutdown_batch_pools

let batch_executor ~helpers =
  Mutex.lock batch_lock;
  let pool =
    match !batch_pools with
    | widest :: _ when Executor.domains widest >= helpers -> widest
    | pools ->
        let pool = Executor.create ~domains:helpers ~lifetime_span:false () in
        batch_pools := pool :: pools;
        pool
  in
  Mutex.unlock batch_lock;
  pool

let jobs_counter = Obs.counter "batch.jobs"
let domains_gauge = Obs.gauge "batch.domains"
let speedup_gauge = Obs.gauge "batch.speedup"

let parallel_map ?domains ?wall_budget ?on_done f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else
    Trace.with_span "batch" @@ fun () ->
    let workers =
      let requested =
        match domains with Some d -> max 1 d | None -> default_domains ()
      in
      min requested n
    in
    let deadline =
      match wall_budget with
      | None -> infinity
      | Some s -> Obs.now () +. s
    in
    let t0 = Obs.now () in
    (* Slot [i] belongs to the one worker that claimed [i], so plain array
       writes race with nothing; [parallel_tasks]' completion count,
       taken under its lock, publishes them to the caller. *)
    let results = Array.make n Cancelled in
    (* Per-worker seconds spent running jobs; the speedup gauge is
       Σ busy / wall. Each worker owns its own slot. *)
    let busy = Array.make workers 0.0 in
    let next = Atomic.make 0 in
    let run_one w i =
      let s0 = Obs.now () in
      if s0 > deadline then
        Trace.instant "batch.cancelled" ~args:[ ("index", Json.Int i) ]
      else
        Trace.with_span "batch.job"
          ~args:[ ("index", Json.Int i) ]
          (fun () ->
            match f xs.(i) with
            | y -> results.(i) <- Done y
            | exception e -> results.(i) <- Failed e);
      Option.iter (fun g -> g i results.(i)) on_done;
      busy.(w) <- busy.(w) +. (Obs.now () -. s0)
    in
    (* [Trace.with_span] = timeline event pair on this worker's domain
       row + the batch/batch.worker-k Obs aggregate. *)
    let worker w () =
      Trace.with_span
        (Printf.sprintf "batch.worker-%d" w)
        (fun () -> ignore (claim_loop next n (run_one w)))
    in
    (* Each worker is one task: the caller runs worker 0 and drains the
       rest with the helpers. An [on_done] that raises ends its worker's
       claims, and the first such exception is re-raised once every
       worker has stopped. *)
    if workers = 1 then worker 0 ()
    else
      Executor.parallel_tasks
        (batch_executor ~helpers:(workers - 1))
        (Array.init workers worker);
    let wall = Obs.now () -. t0 in
    Obs.add jobs_counter n;
    Obs.set domains_gauge (float_of_int workers);
    if wall > 0.0 then
      Obs.set speedup_gauge (Array.fold_left ( +. ) 0.0 busy /. wall);
    results
