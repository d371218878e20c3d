(* serve-mix: an in-process daemon on a temporary socket under a closed
   loop of 2 connections.

   Most requests hit a hot set warmed during set-up; a seeded minority are
   never-seen queries (a fresh λ on a benchmark, or a small fault tree)
   that miss and run the pipeline on the daemon's single executor domain.
   Hits (reads) and misses (inserts and evictions) share one path.

   The mix is assumed: the repository holds no record of served traffic.
   The share of misses follows the one daemon session OPERATIONS.md shows
   (41 hits, 12 misses); see [miss_every] and [hot]. *)

module Proto = Socy_serve.Protocol
module Server = Socy_serve.Server
module Cache = Socy_serve.Cache
module Json = Socy_obs.Json
module P = Socy_core.Pipeline
module Model = Socy_defects.Model
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module Prng = Socy_util.Prng
open Measure

let connections = 2
let executor_domains = 1

(* What the workload starts. Domains: the main one, which runs the
   daemon's accept loop and connection threads and the load generator,
   plus the executor's ([Pool.Executor.create] spawns one per domain).
   Systhreads, all on the main domain and taking turns under its lock:
   the accept loop, one per connection, and the load generator. *)
let usage =
  [ ("domains", 1 + executor_domains); ("systhreads", 1 + connections + 1); ("connections", connections) ]

(* Every [miss_every]-th request is a never-seen query: 25% misses, the
   1-in-k share nearest to the 12 of 53 (23%) in the daemon session that
   OPERATIONS.md shows. The miss class is then large enough that
   [latency_ms.p90] falls inside it (near its 60th percentile), not on
   the edge between hits and misses. *)
let miss_every = 4

let query ~lambda source =
  {
    Proto.source;
    lambda;
    alpha = S.alpha;
    p_lethal = S.p_lethal;
    epsilon = 1e-3;
    mv_order = Scheme.Heur Socy_order.Heuristics.Weight;
    bit_order = Scheme.Ml;
    node_limit = None;
    cpu_limit = None;
    reorder = false;
    par_domains = None;
  }

let fault_trees =
  [|
    "x0 & x1 | x2 & x3";
    "atleast(2; x0, x1, x2) | x3 & x4";
    "(x0 | x1) & (x2 | x3) & (x4 | x5)";
    "atleast(3; x0, x1, x2, x3, x4) | x5";
    "x0 & (x1 | x2 & x3) | atleast(2; x4, x5, x6)";
    "(x0 & x1) | (x2 & x3) | (x4 & x5) | (x6 & x7)";
  |]

(* The hot set: each fault tree at two λ, and the two smallest suite
   benchmarks at the protocol's default λ = 10 (and 5), as [eval] and as
   [conditional-yields]: 18 keys, every kind of query the daemon caches.
   It fits the default 128-entry cache with room for 110 fresh entries
   between two visits of a hot key, so hot keys are never evicted. *)
let hot =
  Array.concat
    [
      Array.of_list
        (List.concat_map
           (fun lambda ->
             List.map (fun e -> (Proto.Eval, query ~lambda (Proto.Fault_tree e))) (Array.to_list fault_trees))
           [ 8.0; 12.0 ]);
      Array.of_list
        (List.concat_map
           (fun b ->
             [
               (Proto.Eval, query ~lambda:10.0 (Proto.Benchmark b));
               (Proto.Eval, query ~lambda:5.0 (Proto.Benchmark b));
               (Proto.Conditional_yields, query ~lambda:10.0 (Proto.Benchmark b));
             ])
           [ "MS2"; "ESEN4x1" ]);
    ]

type tag = Hot of int | Fresh of Proto.meth * Proto.query

let line_of id (meth, q) =
  Json.to_string (Proto.request_to_json { Proto.id = Json.Int id; meth; query = Some q })

(* The seeded request sequence. Request [i] is a never-seen query when
   [i mod miss_every = miss_every - 1], cycling through a fresh-λ fault
   tree, a fresh-λ MS2 eval and a fresh-λ ESEN4x1 conditional-yields, one
   of each kind of miss the daemon computes; otherwise it is the next hot
   key of a seeded shuffle of the hot set, so every key is asked equally
   often. Fresh λ values lie in [8, 9.25), where M = 6 for every seed, and
   carry the request index, so they never repeat. Seeds change the
   queries but not the amount of work. *)
let sequence seed =
  let rng = Prng.create (Int64.of_int seed) in
  let order = ref [||] in
  let next = ref 0 and hot_next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    let tag =
      if i mod miss_every = miss_every - 1 then begin
        let lambda = 8.0 +. (1.25 *. Prng.float rng) +. (1e-6 *. float_of_int i) in
        match i / miss_every mod 3 with
        | 0 -> Fresh (Proto.Eval, query ~lambda (Proto.Fault_tree fault_trees.(Prng.int rng (Array.length fault_trees))))
        | 1 -> Fresh (Proto.Eval, query ~lambda (Proto.Benchmark "MS2"))
        | _ -> Fresh (Proto.Conditional_yields, query ~lambda (Proto.Benchmark "ESEN4x1"))
      end
      else begin
        let k = !hot_next mod Array.length hot in
        if k = 0 then order := shuffle rng (Array.init (Array.length hot) Fun.id);
        incr hot_next;
        Hot !order.(k)
      end
    in
    let req = match tag with Hot k -> hot.(k) | Fresh (m, q) -> (m, q) in
    (i, tag, line_of i req)

(* The [result] member of a reply, re-serialized. The reply came from the
   same serializer, whose output round-trips, so equal strings mean equal
   reply bytes. *)
let result_of j = Option.map Json.to_string (Json.member "result" j)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let roundtrip c line =
  send c line;
  input_line c.ic

type reply = { tag : tag; index : int; t0 : float; t1 : float; line : string }

(* The closed loop: each connection sends its next request when the reply
   to the previous one has arrived, until [deadline]. *)
let closed_loop conns next ~deadline =
  let inflight = Array.make (Array.length conns) None in
  let out = ref [] in
  let send_next i =
    let index, tag, line = next () in
    inflight.(i) <- Some (index, tag, now ());
    send conns.(i) line
  in
  Array.iteri (fun i _ -> send_next i) conns;
  let rec loop () =
    let waiting = List.filter (fun i -> inflight.(i) <> None) (List.init (Array.length conns) Fun.id) in
    if waiting <> [] then begin
      let ready, _, _ = Unix.select (List.map (fun i -> conns.(i).fd) waiting) [] [] (-1.0) in
      List.iter
        (fun i ->
          if List.mem conns.(i).fd ready then begin
            let line = input_line conns.(i).ic in
            let t1 = now () in
            let index, tag, t0 = Option.get inflight.(i) in
            out := { tag; index; t0; t1; line } :: !out;
            inflight.(i) <- None;
            if t1 < deadline then send_next i
          end)
        waiting;
      loop ()
    end
  in
  loop ();
  List.rev !out

type daemon = {
  server : Server.t;
  runner : Thread.t;
  conns : conn array;
  fill : string array;  (* hot key -> payload bytes of the miss that filled it *)
}

let socket_path () = Printf.sprintf ".bench_out/s%d.sock" (Unix.getpid ())

(* Set-up: start the daemon (1 executor domain, default cache), warm the
   hot set through one connection, open the load connections. *)
let start () =
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  let path = socket_path () in
  let server = Server.create (Server.config ~domains:executor_domains ~unlink_existing:true ~socket_path:path ()) in
  let runner = Thread.create Server.run server in
  let warm = connect path in
  let fill =
    Array.mapi
      (fun k req ->
        let reply = roundtrip warm (line_of (-k - 1) req) in
        match result_of (Json.of_string reply) with Some r -> r | None -> failwith ("warm-up failed: " ^ reply))
      hot
  in
  close_out warm.oc;
  { server; runner; conns = Array.init connections (fun _ -> connect path); fill }

let stop d =
  Array.iter (fun c -> close_out c.oc) d.conns;
  Server.stop d.server;
  Thread.join d.runner

(* The load runs on a systhread of this domain; meanwhile the main thread
   reads the resident-set high-water mark once a second and resets it. *)
let run_load d ~seed ~seconds =
  let next = sequence seed in
  (* Start every run from the same compacted heap, whatever set-up left. *)
  Gc.compact ();
  let finished = Atomic.make false in
  let t0 = now () in
  reset_peak_rss ();
  let result = ref ([], 0.0) in
  let gen =
    Thread.create
      (fun () ->
        let r = closed_loop d.conns next ~deadline:(t0 +. seconds) in
        result := (r, now () -. t0);
        Atomic.set finished true)
      ()
  in
  let rec sample peaks =
    Unix.sleepf 1.0;
    let peaks = peak_rss_mb () :: peaks in
    reset_peak_rss ();
    if Atomic.get finished then peaks else sample peaks
  in
  let peaks = sample [] in
  Thread.join gen;
  let replies, wall = !result in
  (* Completions per whole second of the run. *)
  let windows = max 1 (int_of_float wall) in
  let counts = Array.make windows 0 in
  List.iter
    (fun r ->
      let w = int_of_float (r.t1 -. t0) in
      if w < windows then counts.(w) <- counts.(w) + 1)
    replies;
  let rates = if wall < 1.0 then [ (List.length replies, wall) ] else Array.to_list (Array.map (fun c -> (c, 1.0)) counts) in
  (replies, rates, peaks)

let payload_of_eval meth (r : Layers.result) =
  match meth with
  | Proto.Conditional_yields ->
      Json.Obj
        [
          ("m", Json.Int r.Layers.m);
          ("p_lethal", Json.Float r.Layers.lethal.Model.p_lethal);
          ( "conditional_yields",
            Json.List (List.init (r.Layers.m + 1) (fun k -> Json.Float (1.0 -. r.Layers.cond_unusable.(k)))) );
        ]
  | _ -> Json.Obj [ ("report", Json.Obj (Proto.report_fields (Layers.to_report r))) ]

(* Off the clock, in process: what the daemon should have answered. *)
let reference meth q =
  match Proto.resolve q with
  | Error e -> failwith e
  | Ok res -> (
      let config = P.Config.make ~epsilon:q.Proto.epsilon ~mv_order:q.Proto.mv_order ~bit_order:q.Proto.bit_order () in
      match meth with
      | Proto.Conditional_yields -> (
          match P.Artifacts.build ~config res.Proto.circuit (Model.to_lethal res.Proto.model) with
          | Error f -> failwith (P.failure_to_string f)
          | Ok a ->
              let lethal = a.P.Artifacts.lethal in
              Json.Obj
                [
                  ("m", Json.Int a.P.Artifacts.m);
                  ("p_lethal", Json.Float lethal.Model.p_lethal);
                  ( "conditional_yields",
                    Json.List (Array.to_list (Array.map (fun y -> Json.Float y) (P.Artifacts.conditional_yields a))) );
                ])
      | _ -> (
          match P.run ~config res.Proto.circuit res.Proto.model with
          | Error f -> failwith (P.failure_to_string f)
          | Ok r -> Json.Obj [ ("report", Json.Obj (Proto.report_fields r)) ]))

type classified = { latency : float; hit : bool; server_ms : float }

(* Check every reply; returns the timing of the good ones. *)
let classify tally d replies =
  List.filter_map
    (fun r ->
      let j = Json.of_string r.line in
      let cache = match Json.member "cache" j with Some (Json.String c) -> c | _ -> "" in
      let status = match Json.member "status" j with Some (Json.String s) -> s | _ -> "" in
      let result = result_of j in
      let ok =
        status = "ok"
        && (match (r.tag, result) with
           | Hot k, Some res -> res = d.fill.(k)
           | Fresh _, Some _ -> cache = "miss"
           | _, None -> false)
      in
      check tally ok (Printf.sprintf "request %d: %s" r.index r.line);
      if not ok then None
      else
        let server_ms = match Json.member "elapsed_ms" j with Some v -> Option.value (Json.to_float v) ~default:nan | None -> nan in
        Some { latency = (r.t1 -. r.t0) *. 1e3; hit = cache = "hit"; server_ms })
    replies

(* Off the clock: a seeded sample of replies matches an in-process run. *)
let check_sample tally ~seed replies =
  let rng = Prng.create (Int64.of_int (seed + 104729)) in
  let fresh = Array.of_list (List.filter (fun r -> match r.tag with Fresh _ -> true | Hot _ -> false) replies) in
  let pick () = if Array.length fresh = 0 then None else Some fresh.(Prng.int rng (Array.length fresh)) in
  let sample = List.filter_map (fun _ -> pick ()) [ 1; 2; 3; 4 ] in
  let hot_sample = List.init 2 (fun _ -> Prng.int rng (Array.length hot)) in
  List.iter
    (fun r ->
      match r.tag with
      | Fresh (meth, q) ->
          let want = Json.to_string (reference meth q) in
          verify tally (result_of (Json.of_string r.line) = Some want)
            (Printf.sprintf "request %d differs from an in-process run: %s" r.index want)
      | Hot _ -> ())
    sample;
  hot_sample

let untraced ~seed ~seconds tally =
  let d, first_setup = timed_setup start in
  let replies, rates, rss_peaks = run_load d ~seed ~seconds in
  stop d;
  let setups = first_setup :: more_setups 2 ~setup:start ~teardown:stop in
  let got = classify tally d replies in
  let hot_sample = check_sample tally ~seed replies in
  List.iter
    (fun k ->
      let meth, q = hot.(k) in
      let want = Json.to_string (reference meth q) in
      verify tally (d.fill.(k) = want) (Printf.sprintf "hot key %d differs from an in-process run" k))
    hot_sample;
  let lat f = Array.of_list (List.filter_map (fun c -> if f c then Some c.latency else None) got) in
  {
    Report.setup = setups;
    rates;
    rss_peaks;
    samples = List.length replies;
    mean_ms = mean (List.map (fun r -> (r.t1 -. r.t0) *. 1e3) replies);
    latencies = Array.of_list (List.map (fun r -> (r.t1 -. r.t0) *. 1e3) replies);
    hits = Some (lat (fun c -> c.hit));
    misses = Some (lat (fun c -> not c.hit));
  }

(* The traced run replays this many requests of the seeded sequence in
   process, through the server's path one call at a time: 24 misses, 8 of
   each fresh kind. Every replay asks the same requests, so the counts
   repeat exactly. *)
let replay_requests = 96

let span = Spans.span
let node_limit = P.default_config.P.node_limit

(* One request on the server's path: decode, resolve, cache key, find, on
   a miss evaluate and add, then encode. Returns the cache key, the
   payload, "hit" or "miss", the reply line and the evaluation, if any. *)
let handle cache ~eval line =
  Spans.with_eval eval (fun () ->
      span "serve.handle" (fun () ->
          let req = match span "serve.decode" (fun () -> Proto.parse_request line) with Ok r -> r | Error (_, e) -> failwith e in
          let meth = req.Proto.meth and q = Option.get req.Proto.query in
          let resolved = match span "serve.resolve" (fun () -> Proto.resolve q) with Ok r -> r | Error e -> failwith e in
          let key =
            span "serve.cache_key" (fun () ->
                Proto.cache_key ~meth ~resolved ~node_limit ~cpu_limit:None ~par_domains:1 q)
          in
          let payload, cache_state, evaluated =
            match span "serve.cache_find" (fun () -> Cache.find cache key) with
            | Some p -> (p, "hit", None)
            | None ->
                let config =
                  P.Config.make ~epsilon:q.Proto.epsilon ~mv_order:q.Proto.mv_order
                    ~bit_order:q.Proto.bit_order ~node_limit ()
                in
                let r = Layers.eval ~config resolved.Proto.circuit resolved.Proto.model in
                let p = payload_of_eval meth r in
                span "serve.cache_add" (fun () -> Cache.add cache key p);
                (p, "miss", Some r)
          in
          let reply =
            span "serve.encode" (fun () ->
                Json.to_string (Proto.ok_response ~id:req.Proto.id ~cache:cache_state ~elapsed_ms:0.0 payload))
          in
          (key, payload, cache_state, reply, evaluated)))

(* The hot set's cache entries, computed once (which also warms every
   lazy table of the miss path). Each replay starts from a fresh cache
   holding just these, as the daemon's cache does after set-up. *)
let warm_entries () =
  Array.to_list
    (Array.mapi
       (fun k req ->
         let key, payload, _, _, _ = handle (Cache.create ~capacity:1 ()) ~eval:0 (line_of (-k - 1) req) in
         (key, payload))
       hot)

(* One replay, with span recording on or off, on a heap compacted off the
   clock. Replies are checked after the clock stops. Returns the replay's
   seconds and its evaluations. *)
let replay_round tally d ~warm ~seed ~round ~traced =
  let cache = Cache.create ~capacity:128 () in
  List.iter (fun (key, p) -> Cache.add cache key p) warm;
  let next = sequence seed in
  let requests = List.init replay_requests (fun _ -> next ()) in
  Gc.compact ();
  Spans.recording := traced;
  let t0 = now () in
  let out =
    List.map
      (fun (i, tag, line) ->
        let _, _, state, reply, r = handle cache ~eval:((round * replay_requests) + i + 1) line in
        (i, tag, state, reply, r))
      requests
  in
  let dt = now () -. t0 in
  Spans.recording := false;
  List.iter
    (fun (i, tag, state, reply, _) ->
      match tag with
      | Hot k ->
          check tally
            (state = "hit" && result_of (Json.of_string reply) = Some d.fill.(k))
            (Printf.sprintf "replayed hot key %d differs from the daemon's" k)
      | Fresh _ -> check tally (state = "miss") (Printf.sprintf "replayed request %d hit" i))
    out;
  (dt, List.filter_map (fun (_, _, _, _, r) -> r) out)

(* Untraced and traced replays alternate, a pair at a time, each pair in
   the opposite order to the last, until [seconds] have gone by. The
   untraced ones differ only in making no clock reads: they are the
   baseline for the tracing overhead and for the time no timed layer
   accounts for. *)
let replay tally d ~seed ~seconds =
  let warm = warm_entries () in
  let t0 = now () in
  let rec go round untraced traced evaluated =
    let one traced = replay_round tally d ~warm ~seed ~round ~traced in
    let (du, _), (dt, ev) =
      if round mod 2 = 0 then
        let u = one false in
        (u, one true)
      else
        let t = one true in
        (one false, t)
    in
    let untraced = du :: untraced and traced = dt :: traced and evaluated = ev @ evaluated in
    if now () -. t0 < seconds then go (round + 1) untraced traced evaluated else (untraced, traced, evaluated)
  in
  go 0 [] [] []

(* The traced run: half of [seconds] drives the daemon over its socket,
   half replays requests in process. *)
let traced ~seed ~seconds tally =
  let d = start () in
  let gc0 = gc_sample () in
  let replies, _, _ = run_load d ~seed ~seconds:(seconds /. 2.0) in
  let gc = gc_delta gc0 (gc_sample ()) in
  stop d;
  let got = classify tally d replies in
  Spans.recording := true;
  List.iter
    (fun r ->
      let rid = match Json.member "rid" (Json.of_string r.line) with Some (Json.Int n) -> n | _ -> 0 in
      Spans.record ~name:"serve.request" ~eval:rid ~t0:r.t0 ~t1:r.t1)
    replies;
  Spans.recording := false;
  let untraced, traced, evaluated = replay tally d ~seed ~seconds:(seconds /. 2.0) in
  let rate secs = float_of_int replay_requests /. secs in
  let per_request_ms secs = secs *. 1e3 /. float_of_int replay_requests in
  let n = float_of_int (max 1 (List.length got)) in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 got in
  let requests = float_of_int (max 1 (List.length replies)) in
  {
    Report.evals = replay_requests * List.length traced;
    throughput = median (List.map rate traced);
    baseline = Some (median (List.map per_request_ms untraced), median (List.map rate untraced));
    gc;
    extra =
      Layers.counts evaluated
      @ [
          ("serve.server_ms", sum (fun c -> c.server_ms) /. n);
          ("serve.outside_ms", sum (fun c -> c.latency -. c.server_ms) /. n);
          ("serve.cache_hit_ratio", sum (fun c -> if c.hit then 1.0 else 0.0) /. n);
          ("gc.minor_collections", float_of_int gc.minor /. requests);
          ("gc.major_collections", float_of_int gc.major /. requests);
          ("gc.promoted_mb", promoted_mb gc.promoted_words /. requests);
        ];
    other_layers_ms = 0.0;
  }
