module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module P = Socy_core.Pipeline
module Pool = Pool

type job = {
  label : string;
  circuit : Socy_logic.Circuit.t;
  lethal : Socy_defects.Model.lethal;
  config : P.config;
}

let job ?(config = P.Config.default) ?(label = "") circuit lethal =
  { label; circuit; lethal; config }

(* Result-aware outcome counters: at the pool level a budget blow-up is a
   normally-returned [Error], so the ok/failed split is made here. *)
let ok_counter = Obs.counter "batch.jobs_ok"
let failed_counter = Obs.counter "batch.jobs_failed"
let cancelled_counter = Obs.counter "batch.jobs_cancelled"

let run_batch ?domains ?wall_budget ?progress jobs =
  let arr = Array.of_list jobs in
  (* Progress is driven from the pool's [on_done] hook: a lock-free
     completion count bumped on the worker domain, handed to the caller's
     callback together with the finished job's label. *)
  let on_done =
    match progress with
    | None -> None
    | Some report ->
        let total = Array.length arr in
        let completed = Atomic.make 0 in
        Some
          (fun i _outcome ->
            let completed = 1 + Atomic.fetch_and_add completed 1 in
            report ~completed ~total ~label:arr.(i).label)
  in
  let outcomes =
    Trace.with_span "batch" (fun () ->
        Pool.parallel_map ?domains ?wall_budget ?on_done
          (fun j -> P.run_lethal ~config:j.config j.circuit j.lethal)
          arr)
  in
  Array.to_list
    (Array.map
       (function
         | Pool.Done (Ok _ as r) ->
             Obs.incr ok_counter;
             r
         | Pool.Done (Error _ as r) ->
             Obs.incr failed_counter;
             r
         | Pool.Cancelled ->
             Obs.incr cancelled_counter;
             Error P.Batch_cancelled
         (* Budget blow-ups are already Results; anything else escaping a
            pipeline run is a bug worth a real backtrace. *)
         | Pool.Failed e -> raise e)
       outcomes)
