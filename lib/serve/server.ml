module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Sink = Socy_obs.Sink
module Json = Socy_obs.Json
module Ctx = Socy_obs.Ctx
module Log = Socy_obs.Log
module Export = Socy_obs.Export
module Pool = Socy_batch.Pool
module P = Socy_core.Pipeline
module Model = Socy_defects.Model
module Proto = Protocol

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  socket_path : string;
  domains : int;
  cache_capacity : int;
  max_inflight : int;
  default_node_limit : int;
  max_node_limit : int;
  default_cpu_limit : float option;
  max_cpu_limit : float option;
  default_par_domains : int;
  backlog : int;
  unlink_existing : bool;
  slow_ms : float option;
  metrics_file : string option;
  metrics_interval : float;
}

let config ?domains ?(cache_capacity = 128) ?max_inflight
    ?(default_node_limit = 40_000_000) ?max_node_limit ?default_cpu_limit
    ?max_cpu_limit ?(default_par_domains = 1) ?(backlog = 64)
    ?(unlink_existing = false) ?slow_ms ?metrics_file
    ?(metrics_interval = 10.0) ~socket_path () =
  let reject name rule value =
    invalid_arg (Printf.sprintf "Server.config: %s %s (got %s)" name rule value)
  in
  let at_least_1 name n =
    if n < 1 then reject name "must be at least 1" (string_of_int n)
  in
  let positive name s =
    if (not (Float.is_finite s)) || s <= 0.0 then
      reject name "must be a positive finite number" (Printf.sprintf "%g" s)
  in
  Option.iter (at_least_1 "domains") domains;
  at_least_1 "cache_capacity" cache_capacity;
  Option.iter (at_least_1 "max_inflight") max_inflight;
  at_least_1 "default_node_limit" default_node_limit;
  Option.iter (at_least_1 "max_node_limit") max_node_limit;
  Option.iter (positive "default_cpu_limit") default_cpu_limit;
  Option.iter (positive "max_cpu_limit") max_cpu_limit;
  at_least_1 "default_par_domains" default_par_domains;
  Option.iter
    (fun s ->
      if (not (Float.is_finite s)) || s < 0.0 then
        reject "slow_ms" "must be a non-negative finite number"
          (Printf.sprintf "%g" s))
    slow_ms;
  positive "metrics_interval" metrics_interval;
  let domains =
    match domains with
    | Some d -> d
    | None -> max 1 (Pool.default_domains () - 1)
  in
  let max_inflight = Option.value max_inflight ~default:(4 * domains) in
  (* The cap is authoritative: a cap below the stock default also lowers
     the default, so a request that omits its budget is always
     admissible. *)
  let max_node_limit = Option.value max_node_limit ~default:default_node_limit in
  let default_node_limit = min default_node_limit max_node_limit in
  let default_cpu_limit =
    match (default_cpu_limit, max_cpu_limit) with
    | Some d, Some cap -> Some (Float.min d cap)
    | (Some _ | None), _ -> default_cpu_limit
  in
  {
    socket_path;
    domains;
    cache_capacity;
    max_inflight;
    default_node_limit;
    max_node_limit;
    default_cpu_limit;
    max_cpu_limit;
    default_par_domains;
    backlog;
    unlink_existing;
    slow_ms;
    metrics_file;
    metrics_interval;
  }

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let all_meths =
  [
    Proto.Eval;
    Proto.Conditional_yields;
    Proto.Importance;
    Proto.Stats;
    Proto.Metrics;
    Proto.Health;
    Proto.Shutdown;
  ]

let requests_counter = Obs.counter "serve.requests"
let errors_counter = Obs.counter "serve.errors"
let inflight_gauge = Obs.gauge "serve.inflight"
let connections_counter = Obs.counter "serve.connections"
let connections_gauge = Obs.gauge "serve.connections.open"

let meth_counters =
  List.map
    (fun m -> (m, Obs.counter ("serve.requests." ^ Proto.meth_name m)))
    all_meths

let latency_hists =
  let buckets = [| 1e-4; 1e-3; 1e-2; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |] in
  List.map
    (fun m -> (m, Obs.histogram ~buckets ("serve.latency." ^ Proto.meth_name m)))
    all_meths

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type state = Running | Draining | Stopped

(* What the cache stores: the deterministic part of a reply. *)
type outcome = Payload of Json.t | Failed of P.failure

type conn = { fd : Unix.file_descr; mutable conn_closed : bool }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  executor : Pool.Executor.t;
  cache : outcome Cache.t;
  lock : Mutex.t;
  drained : Condition.t;
  mutable state : state;
  mutable listener_closed : bool;
  mutable active : int;  (* requests currently being handled *)
  mutable conns : conn list;
  mutable threads : Thread.t list;
  counts : (Proto.meth * int ref) list;  (* per-method, for the stats endpoint *)
  mutable error_count : int;
  started_at : float;
  rids : int Atomic.t;  (* monotonic request-id mint *)
  mutable metrics_thread : Thread.t option;
}

let create cfg =
  if cfg.unlink_existing && Sys.file_exists cfg.socket_path then (
    try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith
        (Printf.sprintf "socyield serve: cannot bind %s: %s%s" cfg.socket_path
           (Unix.error_message e)
           (if e = Unix.EADDRINUSE then
              " (daemon already running? remove the socket file or pass --force)"
            else "")));
  Unix.listen fd cfg.backlog;
  {
    cfg;
    listen_fd = fd;
    executor = Pool.Executor.create ~domains:cfg.domains ();
    cache = Cache.create ~probes:"serve.cache" ~capacity:cfg.cache_capacity ();
    lock = Mutex.create ();
    drained = Condition.create ();
    state = Running;
    listener_closed = false;
    active = 0;
    conns = [];
    threads = [];
    counts = List.map (fun m -> (m, ref 0)) all_meths;
    error_count = 0;
    started_at = Obs.now ();
    rids = Atomic.make 0;
    metrics_thread = None;
  }

let stop t =
  Mutex.lock t.lock;
  let was_running = t.state = Running in
  (match t.state with Running -> t.state <- Draining | Draining | Stopped -> ());
  Mutex.unlock t.lock;
  if was_running then begin
    (* Wake the thread blocked in [accept] — merely closing the fd would
       not (Linux leaves the accepter asleep). [shutdown] wakes it on
       Linux; the dummy connection covers platforms where it doesn't. The
       loop re-checks the state after every accept and exits. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path)
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* Stats / health payloads                                             *)
(* ------------------------------------------------------------------ *)

let cache_stats_json t =
  let s = Cache.stats t.cache in
  let looked = s.Cache.hits + s.Cache.misses in
  Json.Obj
    [
      ("size", Json.Int s.Cache.size);
      ("capacity", Json.Int s.Cache.capacity);
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses);
      ("evictions", Json.Int s.Cache.evictions);
      ( "hit_rate",
        Json.Float
          (if looked = 0 then 0.0 else float_of_int s.Cache.hits /. float_of_int looked)
      );
    ]

let stats_json t =
  Mutex.lock t.lock;
  let active = t.active in
  let open_conns = List.length t.conns in
  let counts = List.map (fun (m, r) -> (Proto.meth_name m, Json.Int !r)) t.counts in
  let errors = t.error_count in
  Mutex.unlock t.lock;
  Json.Obj
    [
      ("schema", Json.String "socyield-serve-stats/1");
      ("uptime_s", Json.Float (Obs.now () -. t.started_at));
      ("domains", Json.Int t.cfg.domains);
      ("in_flight", Json.Int (Pool.Executor.in_flight t.executor));
      ("active_requests", Json.Int active);
      ("open_connections", Json.Int open_conns);
      ("requests", Json.Obj (counts @ [ ("errors", Json.Int errors) ]));
      ("cache", cache_stats_json t);
      (* Timeline truncation is an operational signal: a non-zero dropped
         count means the Perfetto export is missing the oldest events. *)
      ( "trace",
        Json.Obj
          [
            ("buffered", Json.Int (Trace.event_count ()));
            ("dropped", Json.Int (Trace.dropped_count ()));
          ] );
      ( "log",
        Json.Obj
          [
            ( "level",
              Json.String
                (match Log.current_level () with
                | None -> "off"
                | Some l -> Log.level_name l) );
            ("emitted", Json.Int (Log.emitted_count ()));
            ("dropped", Json.Int (Log.dropped_count ()));
          ] );
      ("metrics", Sink.snapshot_to_json (Obs.snapshot ()));
    ]

let health_json t =
  Json.Obj
    [
      ("status", Json.String "ok");
      ("protocol", Json.String (Printf.sprintf "socyield-serve/%d" Proto.version));
      ("uptime_s", Json.Float (Obs.now () -. t.started_at));
    ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-stage wall times as a JSON object, for the slow-query log. *)
let stage_times_field times =
  ( "stage_ms",
    Json.Obj (List.map (fun (k, s) -> (k, Json.Float (s *. 1000.0))) times) )

(* Returns the cacheable outcome plus non-cached metadata (stage times,
   peak node counts) that only the slow-query log consumes. *)
let compute meth (resolved : Proto.resolved) pconfig =
  match meth with
  | Proto.Eval -> (
      match P.run ~config:pconfig resolved.Proto.circuit resolved.Proto.model with
      | Ok r ->
          ( Payload (Json.Obj [ ("report", Json.Obj (Proto.report_fields r)) ]),
            [
              stage_times_field r.P.stage_times;
              ("robdd_peak", Json.Int r.P.robdd_peak);
            ] )
      | Error f -> (Failed f, []))
  | Proto.Conditional_yields -> (
      let lethal = Model.to_lethal resolved.Proto.model in
      match P.Artifacts.build ~config:pconfig resolved.Proto.circuit lethal with
      | Error f -> (Failed f, [])
      | Ok a ->
          let ys = P.Artifacts.conditional_yields a in
          ( Payload
              (Json.Obj
                 [
                   ("m", Json.Int a.P.Artifacts.m);
                   ("p_lethal", Json.Float lethal.Model.p_lethal);
                   ( "conditional_yields",
                     Json.List
                       (Array.to_list (Array.map (fun y -> Json.Float y) ys)) );
                 ]),
            [ stage_times_field a.P.Artifacts.stage_seconds ] ))
  | Proto.Importance -> (
      match
        Socy_core.Importance.yield_gain ~config:pconfig
          ~names:resolved.Proto.names resolved.Proto.circuit
          resolved.Proto.model
      with
      | Error f -> (Failed f, [])
      | Ok (r, entries) ->
          ( Payload
              (Json.Obj
                 [
                   ( "components",
                     Json.List
                       (List.map
                          (fun (e : Socy_core.Importance.entry) ->
                            Json.Obj
                              [
                                ("component", Json.Int e.Socy_core.Importance.component);
                                ("name", Json.String e.Socy_core.Importance.name);
                                ("base_yield", Json.Float e.Socy_core.Importance.base_yield);
                                ( "hardened_yield",
                                  Json.Float e.Socy_core.Importance.hardened_yield );
                                ("gain", Json.Float e.Socy_core.Importance.gain);
                              ])
                          entries) );
                 ]),
            [ stage_times_field r.P.stage_times ] ))
  | Proto.Stats | Proto.Metrics | Proto.Health | Proto.Shutdown -> assert false

let reply_of_outcome ~cache ~elapsed_ms id = function
  | Payload result -> Proto.ok_response ~id ~cache ~elapsed_ms result
  | Failed f ->
      let code, msg, details = Proto.failure_error f in
      Proto.error_response ~id ~cache ~details code msg

let log_reject code msg details =
  Log.warn "serve.reject"
    ~fields:(("code", Json.String (Proto.error_code_name code)) :: details)
    msg

let eval_reply t (req : Proto.request) ~t0 =
  let q = Option.get req.Proto.query in
  let reject ?(details = []) code msg =
    log_reject code msg details;
    Proto.error_response ~id:req.Proto.id ~details code msg
  in
  let node_limit =
    Option.value q.Proto.node_limit ~default:t.cfg.default_node_limit
  in
  let cpu_limit =
    match q.Proto.cpu_limit with
    | None -> t.cfg.default_cpu_limit
    | Some _ as s -> s
  in
  let over_cpu_cap =
    match (cpu_limit, t.cfg.max_cpu_limit) with
    | Some c, Some cap -> c > cap
    | _ -> false
  in
  (* Effective team size: request override, else the server default,
     under the pipeline's reorder rule, so the cache key reflects the
     engine that actually runs. *)
  let par_domains =
    P.Config.team_domains ~reorder:q.Proto.reorder
      (Option.value q.Proto.par_domains ~default:t.cfg.default_par_domains)
  in
  (* The config is built before the cache lookup: a value the pipeline
     rejects (an epsilon outside (0, 1)) is the client's error, never a
     cache entry or an executor failure. *)
  let checked =
    match Proto.resolve q with
    | Error _ as e -> e
    | Ok resolved -> (
        match
          P.Config.make ~epsilon:q.Proto.epsilon ~mv_order:q.Proto.mv_order
            ~bit_order:q.Proto.bit_order ~node_limit ?cpu_limit
            ~reorder:q.Proto.reorder ~par_domains ()
        with
        | pconfig -> Ok (resolved, pconfig)
        | exception Invalid_argument msg -> Error msg)
  in
  match checked with
  | Error msg -> reject Proto.Invalid_request msg
  | Ok _ when node_limit > t.cfg.max_node_limit ->
      reject Proto.Admission_rejected
        ~details:
          [
            ("requested_node_limit", Json.Int node_limit);
            ("cap", Json.Int t.cfg.max_node_limit);
          ]
        (Printf.sprintf "node_limit %d exceeds the server cap %d" node_limit
           t.cfg.max_node_limit)
  | Ok _ when over_cpu_cap ->
      let requested = Option.value cpu_limit ~default:0.0 in
      let cap = Option.value t.cfg.max_cpu_limit ~default:0.0 in
      reject Proto.Admission_rejected
        ~details:
          [ ("requested_cpu_limit", Json.Float requested); ("cap", Json.Float cap) ]
        (Printf.sprintf "cpu_limit %g exceeds the server cap %g" requested cap)
  | Ok (resolved, pconfig) -> (
      let key =
        Proto.cache_key ~meth:req.Proto.meth ~resolved ~node_limit ~cpu_limit
          ~par_domains q
      in
      let finish ~cache ?(meta = []) outcome =
        let elapsed_ms = (Obs.now () -. t0) *. 1000.0 in
        Trace.instant "serve.request"
          ~args:
            [
              ("method", Json.String (Proto.meth_name req.Proto.meth));
              ("cache", Json.String cache);
              ("ms", Json.Float elapsed_ms);
            ];
        if Log.enabled_for Log.Info then
          Log.info "serve.request"
            ~fields:
              [
                ("method", Json.String (Proto.meth_name req.Proto.meth));
                ("cache", Json.String cache);
                ("ms", Json.Float elapsed_ms);
              ]
            (Printf.sprintf "%s (%s) in %.1f ms"
               (Proto.meth_name req.Proto.meth)
               cache elapsed_ms);
        (* The slow-query log: everything an operator needs to explain
           the latency without re-running — the cache-key digest (joins
           repeat offenders), per-stage wall times, peak node counts and
           the effective engine settings. *)
        (match t.cfg.slow_ms with
        | Some thresh when elapsed_ms >= thresh ->
            Log.warn "serve.slow"
              ~fields:
                ([
                   ("method", Json.String (Proto.meth_name req.Proto.meth));
                   ("cache", Json.String cache);
                   ("ms", Json.Float elapsed_ms);
                   ("threshold_ms", Json.Float thresh);
                   ("key", Json.String key);
                   ("node_limit", Json.Int node_limit);
                   ("reorder", Json.Bool q.Proto.reorder);
                   ("par_domains", Json.Int par_domains);
                 ]
                @ meta)
              (Printf.sprintf "slow request: %s took %.1f ms (threshold %g)"
                 (Proto.meth_name req.Proto.meth)
                 elapsed_ms thresh)
        | _ -> ());
        reply_of_outcome ~cache ~elapsed_ms req.Proto.id outcome
      in
      match Cache.find t.cache key with
      | Some outcome -> finish ~cache:"hit" outcome
      | None ->
          if Pool.Executor.in_flight t.executor >= t.cfg.max_inflight then
            reject Proto.Admission_rejected
              ~details:[ ("max_inflight", Json.Int t.cfg.max_inflight) ]
              (Printf.sprintf
                 "server is saturated (%d runs in flight, max %d) — retry later"
                 (Pool.Executor.in_flight t.executor)
                 t.cfg.max_inflight)
          else (
            Obs.set inflight_gauge
              (float_of_int (Pool.Executor.in_flight t.executor + 1));
            (* Intra-problem parallelism reuses the same executor
               domains ([parallel_tasks] claim-drains with the running
               request participating, so saturation cannot deadlock) —
               no second domain team is ever spawned by the daemon. *)
            let pconfig =
              if par_domains > 1 then
                P.Config.with_par_runner
                  (Some (Pool.Executor.parallel_tasks t.executor))
                  pconfig
              else pconfig
            in
            match
              Pool.Executor.run t.executor (fun () ->
                  compute req.Proto.meth resolved pconfig)
            with
            | outcome, meta ->
                Obs.set inflight_gauge
                  (float_of_int (Pool.Executor.in_flight t.executor));
                (* Deterministic outcomes are cached; CPU-budget failures
                   depend on machine load, so a retry may succeed. *)
                (match outcome with
                | Payload _ | Failed (P.Node_budget _) -> Cache.add t.cache key outcome
                | Failed (P.Cpu_budget _) -> ());
                finish ~cache:"miss" ~meta outcome
            | exception e -> (
                Obs.set inflight_gauge
                  (float_of_int (Pool.Executor.in_flight t.executor));
                match e with
                (* A value only the run itself can rule out, such as a λ
                   whose truncation point is out of reach: the client's
                   error, and never cached. *)
                | Invalid_argument msg -> reject Proto.Invalid_request msg
                | e ->
                    Proto.error_response ~id:req.Proto.id Proto.Internal
                      (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* Returns (reply, keep connection open, initiate shutdown after reply). *)
let handle_line t ~t0 line =
  match Proto.parse_request line with
  | Error (code, msg) -> (Proto.error_response ~id:Json.Null code msg, true, false)
  | Ok req -> (
      (match List.assoc_opt req.Proto.meth t.counts with
      | Some r ->
          Mutex.lock t.lock;
          incr r;
          Mutex.unlock t.lock
      | None -> ());
      Obs.incr requests_counter;
      (match List.assoc_opt req.Proto.meth meth_counters with
      | Some c -> Obs.incr c
      | None -> ());
      match req.Proto.meth with
      | Proto.Health -> (Proto.ok_response ~id:req.Proto.id (health_json t), true, false)
      | Proto.Stats -> (Proto.ok_response ~id:req.Proto.id (stats_json t), true, false)
      | Proto.Metrics ->
          (* The Prometheus exposition travels as one JSON string member;
             [socyield query --method metrics] unwraps it back to plain
             text for scrapers. *)
          ( Proto.ok_response ~id:req.Proto.id
              (Json.Obj
                 [
                   ( "content_type",
                     Json.String "text/plain; version=0.0.4" );
                   ("exposition", Json.String (Export.render_now ()));
                 ]),
            true,
            false )
      | Proto.Shutdown ->
          ( Proto.ok_response ~id:req.Proto.id
              (Json.Obj [ ("draining", Json.Bool true) ]),
            false,
            true )
      | Proto.Eval | Proto.Conditional_yields | Proto.Importance ->
          let reply = eval_reply t req ~t0 in
          (match List.assoc_opt req.Proto.meth latency_hists with
          | Some h -> Obs.observe h (Obs.now () -. t0)
          | None -> ());
          (reply, true, false))

let is_error_reply reply =
  match Json.member "status" reply with
  | Some (Json.String "error") -> true
  | _ -> false

let send oc reply =
  match
    output_string oc (Json.to_string reply);
    output_char oc '\n';
    flush oc
  with
  | () -> true
  | exception Sys_error _ -> false
  | exception Unix.Unix_error _ -> false

(* The server-assigned request id rides back in the reply envelope so a
   client can quote it when reading the daemon's logs or trace. It lives
   outside [result] — cache hits replay payloads bit-identically while
   every execution keeps its own identity. *)
let stamp_rid rid reply =
  match reply with
  | Json.Obj fields when not (List.mem_assoc "rid" fields) ->
      Json.Obj (fields @ [ ("rid", Json.Int rid) ])
  | reply -> reply

(* One request line: rid minting + ambient-context install, draining
   check, and active accounting around dispatch. Everything the request
   emits — log records, trace events, executor spans — happens under
   [Ctx.with_request rid], so it all carries this request's id. *)
let process t oc line =
  let t0 = Obs.now () in
  let rid = Atomic.fetch_and_add t.rids 1 + 1 in
  Ctx.with_request rid @@ fun () ->
  Mutex.lock t.lock;
  let draining = t.state <> Running in
  if not draining then t.active <- t.active + 1;
  Mutex.unlock t.lock;
  if draining then begin
    log_reject Proto.Shutting_down "server is shutting down" [];
    ignore
      (send oc
         (Proto.error_response ~id:Json.Null Proto.Shutting_down
            "server is shutting down"));
    false
  end
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.lock;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.broadcast t.drained;
        Mutex.unlock t.lock)
      (fun () ->
        let reply, keep, shutdown_after = handle_line t ~t0 line in
        let reply = stamp_rid rid reply in
        if is_error_reply reply then begin
          Mutex.lock t.lock;
          t.error_count <- t.error_count + 1;
          Mutex.unlock t.lock;
          Obs.incr errors_counter
        end;
        let sent = send oc reply in
        if shutdown_after then stop t;
        keep && sent && not shutdown_after)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let close_conn t c =
  Mutex.lock t.lock;
  let do_close = not c.conn_closed in
  c.conn_closed <- true;
  t.conns <- List.filter (fun c' -> c' != c) t.conns;
  let remaining = List.length t.conns in
  Mutex.unlock t.lock;
  if do_close then (try Unix.close c.fd with Unix.Unix_error _ -> ());
  Obs.set connections_gauge (float_of_int remaining);
  if do_close && Log.enabled_for Log.Debug then
    Log.debug "serve.close"
      ~fields:[ ("open", Json.Int remaining) ]
      "connection closed"

let handle_connection t c =
  let ic = Unix.in_channel_of_descr c.fd in
  let oc = Unix.out_channel_of_descr c.fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        let line = String.trim line in
        if line = "" then loop () else if process t oc line then loop ()
  in
  (try loop ()
   with e ->
     Printf.eprintf "socyield serve: connection thread died: %s\n%!"
       (Printexc.to_string e));
  close_conn t c

(* ------------------------------------------------------------------ *)
(* Metrics snapshots                                                   *)
(* ------------------------------------------------------------------ *)

(* Periodic Prometheus-text snapshots for file-based scrapers (node
   exporter textfile collector and the like). Sleeps in short steps so a
   drain never waits a full interval for this thread; one final snapshot
   on the way out captures the end-of-life state. *)
let metrics_writer t path =
  let write () = try Export.write_file path with Sys_error _ -> () in
  let running () =
    Mutex.lock t.lock;
    let r = t.state = Running in
    Mutex.unlock t.lock;
    r
  in
  let rec wait remaining =
    if remaining <= 0.0 then true
    else if not (running ()) then false
    else begin
      Thread.delay (Float.min 0.2 remaining);
      wait (remaining -. 0.2)
    end
  in
  let rec loop () =
    if wait t.cfg.metrics_interval then begin
      write ();
      loop ()
    end
  in
  loop ();
  write ()

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                               *)
(* ------------------------------------------------------------------ *)

let drain t =
  Mutex.lock t.lock;
  let active_at_drain = t.active in
  let open_at_drain = List.length t.conns in
  Mutex.unlock t.lock;
  if Log.enabled_for Log.Info then
    Log.info "serve.drain"
      ~fields:
        [
          ("active", Json.Int active_at_drain);
          ("open", Json.Int open_at_drain);
        ]
      "draining: listener closed, finishing in-flight requests";
  (* 0. The listener is done accepting. *)
  Mutex.lock t.lock;
  let close_listener = not t.listener_closed in
  t.listener_closed <- true;
  Mutex.unlock t.lock;
  if close_listener then
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* 1. Every in-flight request is answered. *)
  Mutex.lock t.lock;
  while t.active > 0 do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock;
  (* 2. Worker domains drain their (now empty) queue and join. *)
  Pool.Executor.shutdown t.executor;
  (* 3. Idle connections wake up (EOF) and their threads join. The fds
     are shut down, not closed — each connection thread still owns the
     single close of its fd. *)
  Mutex.lock t.lock;
  List.iter
    (fun c ->
      if not c.conn_closed then
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.conns;
  let threads = t.threads in
  Mutex.unlock t.lock;
  List.iter (fun th -> try Thread.join th with _ -> ()) threads;
  (* 4. The metrics writer notices the state change (≤ 0.2 s), takes its
     final snapshot and joins. *)
  (match t.metrics_thread with
  | Some th ->
      (try Thread.join th with _ -> ());
      t.metrics_thread <- None
  | None -> ());
  Mutex.lock t.lock;
  t.state <- Stopped;
  Mutex.unlock t.lock;
  if Log.enabled_for Log.Info then Log.info "serve.stopped" "server stopped";
  try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ()

let run t =
  (* A client vanishing mid-reply must surface as EPIPE on the write, not
     kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (match t.cfg.metrics_file with
  | Some path when t.metrics_thread = None ->
      t.metrics_thread <- Some (Thread.create (fun () -> metrics_writer t path) ())
  | _ -> ());
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Mutex.lock t.lock;
        let draining = t.state <> Running in
        Mutex.unlock t.lock;
        if draining then
          (* stop()'s wake-up connection, or a client that raced the
             shutdown: either way, accepting is over. *)
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          let c = { fd; conn_closed = false } in
          Obs.incr connections_counter;
          Mutex.lock t.lock;
          t.conns <- c :: t.conns;
          let n = List.length t.conns in
          Mutex.unlock t.lock;
          Obs.set connections_gauge (float_of_int n);
          if Log.enabled_for Log.Debug then
            Log.debug "serve.accept"
              ~fields:[ ("open", Json.Int n) ]
              "accepted connection";
          let th = Thread.create (fun () -> handle_connection t c) () in
          Mutex.lock t.lock;
          t.threads <- th :: t.threads;
          Mutex.unlock t.lock;
          accept_loop ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ ->
        (* Listener shut down or closed (EBADF/EINVAL) — stop accepting
           and fall through to the drain whether or not stop() did it. *)
        stop t
  in
  accept_loop ();
  drain t
