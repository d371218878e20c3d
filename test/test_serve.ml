(* Tests for the serve layer: codec round trips (qcheck), the LRU result
   cache, cache-key discrimination, and the live daemon — cache hits
   bit-identical to cold runs and to a direct pipeline run, budget and
   admission error shapes, concurrent-client determinism, graceful
   shutdown draining in-flight work, and the stats endpoint. *)

module Proto = Socy_serve.Protocol
module Cache = Socy_serve.Cache
module Server = Socy_serve.Server
module Json = Socy_obs.Json
module P = Socy_core.Pipeline
module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Model = Socy_defects.Model

(* ------------------------------------------------------------------ *)
(* Codec round trip                                                    *)
(* ------------------------------------------------------------------ *)

let mv_orders =
  [
    Scheme.Wv;
    Scheme.Wvr;
    Scheme.Vw;
    Scheme.Vrw;
    Scheme.Heur H.Topology;
    Scheme.Heur H.Weight;
    Scheme.Heur H.H4;
  ]

let bit_orders =
  [
    Scheme.Ml;
    Scheme.Lm;
    Scheme.Heur_bits H.Topology;
    Scheme.Heur_bits H.Weight;
    Scheme.Heur_bits H.H4;
  ]

let gen_request =
  QCheck.Gen.(
    let* meth =
      oneofl
        [
          Proto.Eval;
          Proto.Conditional_yields;
          Proto.Importance;
          Proto.Stats;
          Proto.Health;
          Proto.Shutdown;
        ]
    in
    let* id =
      oneof
        [
          return Json.Null;
          map (fun n -> Json.Int n) small_nat;
          map (fun s -> Json.String ("req-" ^ string_of_int s)) small_nat;
        ]
    in
    let* query =
      if not (Proto.is_evaluation meth) then return None
      else
        let* source =
          oneof
            [
              map (fun s -> Proto.Benchmark s) (oneofl [ "MS2"; "MS4"; "nope" ]);
              map
                (fun s -> Proto.Fault_tree s)
                (oneofl [ "x0 & x1"; "x0 | atleast(2; x1, x2, x3)" ]);
            ]
        in
        let* lambda = oneofl [ 0.5; 1.0; 10.0; 17.25; 3.141592653589793 ] in
        let* alpha = oneofl [ 0.25; 1.0; 2.5 ] in
        let* p_lethal = oneofl [ 0.01; 0.1; 0.97 ] in
        let* epsilon = oneofl [ 1e-3; 1e-4; 0.125 ] in
        let* mv_order = oneofl mv_orders in
        let* bit_order = oneofl bit_orders in
        let* node_limit = oneofl [ None; Some 1000; Some 40_000_000 ] in
        let* cpu_limit = oneofl [ None; Some 1.5; Some 60.0 ] in
        let* reorder = QCheck.Gen.bool in
        let* par_domains = oneofl [ None; Some 1; Some 2; Some 4 ] in
        return
          (Some
             {
               Proto.source;
               lambda;
               alpha;
               p_lethal;
               epsilon;
               mv_order;
               bit_order;
               node_limit;
               cpu_limit;
               reorder;
               par_domains;
             })
    in
    return { Proto.id; meth; query })

let request_print r = Json.to_string (Proto.request_to_json r)
let arb_request = QCheck.make ~print:request_print gen_request

let qcheck_roundtrip =
  QCheck.Test.make ~name:"request_of_json (request_to_json r) = Ok r" ~count:500
    arb_request (fun r ->
      match Proto.request_of_json (Proto.request_to_json r) with
      | Ok r' -> r' = r
      | Error (_, msg) -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let qcheck_wire_roundtrip =
  QCheck.Test.make
    ~name:"parse_request (to_string (request_to_json r)) = Ok r" ~count:500
    arb_request (fun r ->
      match Proto.parse_request (Json.to_string (Proto.request_to_json r)) with
      | Ok r' -> r' = r
      | Error (_, msg) -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let decode_error line =
  match Proto.parse_request line with
  | Ok _ -> Alcotest.failf "expected a decode error for %s" line
  | Error (code, _) -> code

let code =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Proto.error_code_name c))
    ( = )

let test_decode_errors () =
  Alcotest.check code "not JSON" Proto.Parse_error (decode_error "{nope");
  Alcotest.check code "not an object" Proto.Invalid_request (decode_error "[1]");
  Alcotest.check code "missing version" Proto.Invalid_request
    (decode_error {|{"method":"health"}|});
  Alcotest.check code "wrong version" Proto.Unsupported_version
    (decode_error {|{"socyield-serve":2,"method":"health"}|});
  Alcotest.check code "unknown method" Proto.Unknown_method
    (decode_error {|{"socyield-serve":1,"method":"frobnicate"}|});
  Alcotest.check code "eval without params" Proto.Invalid_request
    (decode_error {|{"socyield-serve":1,"method":"eval"}|});
  Alcotest.check code "both sources" Proto.Invalid_request
    (decode_error
       {|{"socyield-serve":1,"method":"eval","params":{"benchmark":"MS2","fault_tree":"x0"}}|});
  Alcotest.check code "bad node_limit" Proto.Invalid_request
    (decode_error
       {|{"socyield-serve":1,"method":"eval","params":{"benchmark":"MS2","node_limit":-3}}|})

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Cache.find c "a");
  (* a is now more recent than b, so inserting c evicts b. *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "size at capacity" 2 (Cache.size c);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions

let test_cache_replace () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "k" 1;
  Cache.add c "k" 2;
  Alcotest.(check (option int)) "replaced" (Some 2) (Cache.find c "k");
  Alcotest.(check int) "no duplicate entry" 1 (Cache.size c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Cache.create: capacity < 1") (fun () ->
      ignore (Cache.create ~capacity:0 ()))

(* Probes are per instance: traffic on one cache must never show up on
   another's counters or gauge, and instance stats stay independent. *)
let test_cache_probe_isolation () =
  let module Obs = Socy_obs.Obs in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let a = Cache.create ~probes:"test.cache_iso.a" ~capacity:1 () in
      let b = Cache.create ~probes:"test.cache_iso.b" ~capacity:1 () in
      let a_hits = Obs.counter "test.cache_iso.a.hits" in
      let b_hits = Obs.counter "test.cache_iso.b.hits" in
      let b_misses = Obs.counter "test.cache_iso.b.misses" in
      let a0 = Obs.counter_value a_hits in
      let b0 = Obs.counter_value b_hits in
      let bm0 = Obs.counter_value b_misses in
      Cache.add a "k" 1;
      ignore (Cache.find a "k");
      ignore (Cache.find a "k");
      Alcotest.(check int) "a counted its hits" (a0 + 2) (Obs.counter_value a_hits);
      Alcotest.(check int) "b hits untouched" b0 (Obs.counter_value b_hits);
      Alcotest.(check int) "b misses untouched" bm0 (Obs.counter_value b_misses);
      Alcotest.(check int) "b instance stats untouched" 0 (Cache.stats b).Cache.hits;
      Alcotest.(check int) "a instance stats counted" 2 (Cache.stats a).Cache.hits;
      (* An unnamed instance counts instance stats without any probe. *)
      let quiet = Cache.create ~capacity:1 () in
      Cache.add quiet "k" 1;
      ignore (Cache.find quiet "k");
      Alcotest.(check int) "unnamed counts locally" 1 (Cache.stats quiet).Cache.hits;
      Alcotest.(check int) "unnamed leaves a's probe alone" (a0 + 2)
        (Obs.counter_value a_hits))

let base_query =
  {
    Proto.source = Proto.Benchmark "MS2";
    lambda = 10.0;
    alpha = S.alpha;
    p_lethal = S.p_lethal;
    epsilon = S.epsilon;
    mv_order = Scheme.Heur H.Weight;
    bit_order = Scheme.Ml;
    node_limit = None;
    cpu_limit = None;
    reorder = false;
    par_domains = None;
  }

let test_cache_key_discriminates () =
  let resolved =
    match Proto.resolve base_query with
    | Ok r -> r
    | Error msg -> Alcotest.failf "resolve failed: %s" msg
  in
  let key ?(meth = Proto.Eval) ?(node_limit = 1000) ?cpu_limit
      ?(par_domains = 1) q =
    Proto.cache_key ~meth ~resolved ~node_limit ~cpu_limit ~par_domains q
  in
  Alcotest.(check string) "stable" (key base_query) (key base_query);
  Alcotest.(check bool) "epsilon keyed" false
    (key base_query = key { base_query with Proto.epsilon = 1e-4 });
  Alcotest.(check bool) "lambda keyed" false
    (key base_query = key { base_query with Proto.lambda = 10.5 });
  Alcotest.(check bool) "ordering keyed" false
    (key base_query = key { base_query with Proto.mv_order = Scheme.Wv });
  Alcotest.(check bool) "method keyed" false
    (key base_query = key ~meth:Proto.Conditional_yields base_query);
  Alcotest.(check bool) "budget keyed" false
    (key base_query = key ~node_limit:2000 base_query);
  Alcotest.(check bool) "par_domains keyed" false
    (key base_query = key ~par_domains:4 base_query)

(* ------------------------------------------------------------------ *)
(* Live server helpers                                                 *)
(* ------------------------------------------------------------------ *)

let with_server ?(tweak = fun c -> c) f =
  let path = Filename.temp_file "socy_serve" ".sock" in
  Sys.remove path;
  let cfg = tweak (Server.config ~domains:2 ~socket_path:path ()) in
  let server = Server.create cfg in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path server)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let roundtrip c req =
  send_line c (Json.to_string req);
  Json.of_string (input_line c.ic)

let with_client path f =
  let c = connect path in
  Fun.protect ~finally:(fun () -> disconnect c) (fun () -> f c)

let request ?(id = 1) meth query =
  Proto.request_to_json { Proto.id = Json.Int id; meth; query }

let member_exn path j =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> Alcotest.failf "reply missing %S" k)
    j path

let str_at path j =
  match member_exn path j with
  | Json.String s -> s
  | _ -> Alcotest.failf "%s not a string" (String.concat "." path)

(* ------------------------------------------------------------------ *)
(* Golden documents                                                    *)
(* ------------------------------------------------------------------ *)

let golden name = In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

(* golden/serve-request.json and golden/serve-reply.json were recorded
   from [socyield serve]; golden/report.json is [socyield eval -b MS2
   --lambda 8.5 --mv-order wvr --metrics json], the same query. The
   request decodes, the daemon answers it with the recorded result, and
   the eval document's report is that result plus [cpu_seconds]. *)
let test_golden_serve () =
  let line = String.trim (golden "serve-request.json") in
  let q =
    match Proto.parse_request line with
    | Ok { Proto.meth = Proto.Eval; query = Some q; _ } -> q
    | Ok _ -> Alcotest.fail "golden request is not an eval query"
    | Error (_, msg) -> Alcotest.failf "golden request: %s" msg
  in
  Alcotest.(check bool) "the query it names" true
    (q = { base_query with Proto.lambda = 8.5; mv_order = Scheme.Wvr });
  let reply = Json.of_string (golden "serve-reply.json") in
  Alcotest.(check string) "recorded status" "ok" (str_at [ "status" ] reply);
  let result = member_exn [ "result" ] reply in
  with_server (fun path _server ->
      with_client path (fun c ->
          send_line c line;
          let live = Json.of_string (input_line c.ic) in
          Alcotest.(check string) "live status" "ok" (str_at [ "status" ] live);
          Alcotest.(check string) "live result = recorded result"
            (Json.to_string result)
            (Json.to_string (member_exn [ "result" ] live))));
  let report = Json.of_string (golden "report.json") in
  Alcotest.(check string) "report schema" "socyield-report/1"
    (str_at [ "schema" ] report);
  let fields =
    match member_exn [ "report" ] report with
    | Json.Obj fields -> List.filter (fun (k, _) -> k <> "cpu_seconds") fields
    | _ -> Alcotest.fail "report is not an object"
  in
  Alcotest.(check string) "eval report = served report"
    (Json.to_string (member_exn [ "report" ] result))
    (Json.to_string (Json.Obj fields));
  let resolved =
    match Proto.resolve q with
    | Ok r -> r
    | Error msg -> Alcotest.failf "resolve: %s" msg
  in
  let config =
    P.Config.make ~epsilon:q.Proto.epsilon ~mv_order:q.Proto.mv_order
      ~bit_order:q.Proto.bit_order ()
  in
  match P.run ~config resolved.Proto.circuit resolved.Proto.model with
  | Error f -> Alcotest.failf "golden query failed: %s" (P.failure_to_string f)
  | Ok r ->
      Alcotest.(check string) "a fresh run gives the recorded fields"
        (Json.to_string (Json.Obj fields))
        (Json.to_string (Json.Obj (Proto.report_fields r)));
      let stages =
        match member_exn [ "stage_times_s" ] report with
        | Json.Obj l -> List.map fst l
        | _ -> Alcotest.fail "stage_times_s is not an object"
      in
      Alcotest.(check (list string)) "stage names" (List.map fst r.P.stage_times)
        stages

(* ------------------------------------------------------------------ *)
(* Live server tests                                                   *)
(* ------------------------------------------------------------------ *)

(* The tentpole guarantee: the second identical query is answered from the
   cache, bit-identically to the cold run, which itself matches a direct
   pipeline run bit for bit. *)
let test_cache_hit_bit_identical () =
  with_server (fun path server ->
      with_client path (fun c ->
          let q = { base_query with Proto.node_limit = Some 10_000_000 } in
          let req = request Proto.Eval (Some q) in
          let first = roundtrip c req in
          let second = roundtrip c req in
          Alcotest.(check string) "first is a miss" "miss" (str_at [ "cache" ] first);
          Alcotest.(check string) "second is a hit" "hit" (str_at [ "cache" ] second);
          Alcotest.(check string)
            "replayed result is bit-identical"
            (Json.to_string (member_exn [ "result" ] first))
            (Json.to_string (member_exn [ "result" ] second));
          let served_yield =
            match member_exn [ "result"; "report"; "yield_lower" ] first with
            | Json.Float f -> f
            | _ -> Alcotest.fail "yield_lower not a float"
          in
          let direct =
            let resolved =
              match Proto.resolve q with
              | Ok r -> r
              | Error msg -> Alcotest.failf "resolve: %s" msg
            in
            let config =
              P.Config.make ~epsilon:q.Proto.epsilon ~mv_order:q.Proto.mv_order
                ~bit_order:q.Proto.bit_order ~node_limit:10_000_000 ()
            in
            match P.run ~config resolved.Proto.circuit resolved.Proto.model with
            | Ok r -> r.P.yield_lower
            | Error f -> Alcotest.failf "direct run failed: %s" (P.failure_to_string f)
          in
          Alcotest.(check int64)
            "served yield has the exact bits of a direct run"
            (Int64.bits_of_float direct)
            (Int64.bits_of_float served_yield);
          (* One pipeline run happened, not two. *)
          let stats = roundtrip c (request ~id:3 Proto.Stats None) in
          let n path =
            match member_exn path stats with
            | Json.Int i -> i
            | _ -> Alcotest.failf "%s not an int" (String.concat "." path)
          in
          Alcotest.(check int) "one cache hit" 1 (n [ "result"; "cache"; "hits" ]);
          Alcotest.(check int) "one cache miss" 1 (n [ "result"; "cache"; "misses" ]);
          ignore server))

let test_budget_rejection_shape () =
  with_server (fun path _server ->
      with_client path (fun c ->
          let q = { base_query with Proto.node_limit = Some 2000 } in
          let reply = roundtrip c (request Proto.Eval (Some q)) in
          Alcotest.(check string) "status" "error" (str_at [ "status" ] reply);
          Alcotest.(check string) "code" "budget-exhausted"
            (str_at [ "error"; "code" ] reply);
          Alcotest.(check string) "kind" "node-budget"
            (str_at [ "error"; "details"; "kind" ] reply);
          (* Node-budget failures are deterministic, so they are cached too. *)
          let again = roundtrip c (request ~id:2 Proto.Eval (Some q)) in
          Alcotest.(check string) "failure replayed from cache" "hit"
            (str_at [ "cache" ] again)))

let test_admission_rejection () =
  with_server
    (* Through the builder, like the CLI: a cap below the stock default
       must actually lower the cap (and the default with it). *)
    ~tweak:(fun cfg ->
      Server.config ~domains:2 ~max_node_limit:1_000_000
        ~socket_path:cfg.Server.socket_path ())
    (fun path _server ->
      with_client path (fun c ->
          let q = { base_query with Proto.node_limit = Some 2_000_000 } in
          let reply = roundtrip c (request Proto.Eval (Some q)) in
          Alcotest.(check string) "status" "error" (str_at [ "status" ] reply);
          Alcotest.(check string) "code" "admission-rejected"
            (str_at [ "error"; "code" ] reply);
          (* Rejected before running: nothing was computed or cached. *)
          let stats = roundtrip c (request ~id:2 Proto.Stats None) in
          match member_exn [ "result"; "cache"; "size" ] stats with
          | Json.Int 0 -> ()
          | _ -> Alcotest.fail "rejected request must not populate the cache"))

(* An epsilon outside (0, 1) is rejected by the pipeline config, which
   the daemon builds before the cache lookup: it never reaches the
   executor or the cache. A lambda whose truncation point is out of reach
   can only be ruled out by the run itself: it is answered the same way
   and not cached either. *)
let test_invalid_query () =
  with_server (fun path _server ->
      with_client path (fun c ->
          let cache_size () =
            match
              member_exn [ "result"; "cache"; "size" ]
                (roundtrip c (request Proto.Stats None))
            with
            | Json.Int n -> n
            | _ -> Alcotest.fail "cache size not an int"
          in
          let before = cache_size () in
          List.iter
            (fun (what, q) ->
              let reply = roundtrip c (request Proto.Eval (Some q)) in
              Alcotest.(check string) (what ^ ": code") "invalid-request"
                (str_at [ "error"; "code" ] reply))
            [
              ( "unknown benchmark",
                { base_query with Proto.source = Proto.Benchmark "NOPE" } );
              ("epsilon 0", { base_query with Proto.epsilon = 0.0 });
              ("epsilon 1", { base_query with Proto.epsilon = 1.0 });
              ("epsilon 2", { base_query with Proto.epsilon = 2.0 });
              ("lambda 1e9", { base_query with Proto.lambda = 1e9 });
            ];
          Alcotest.(check int) "cache size unchanged" before (cache_size ());
          Alcotest.(check string) "health still answers" "ok"
            (str_at [ "status" ] (roundtrip c (request Proto.Health None)))))

(* Every daemon setting is range-checked by [Server.config], so a bad
   one fails there, naming itself, and no socket is ever bound. *)
let test_config_rejects () =
  let path = Filename.temp_file "socy_serve" ".sock" in
  Sys.remove path;
  let socket_path = path in
  List.iter
    (fun (setting, make) ->
      (match Server.create (make ()) with
      | exception Invalid_argument msg ->
          let n = String.length setting in
          let rec names i =
            i + n <= String.length msg
            && (String.sub msg i n = setting || names (i + 1))
          in
          Alcotest.(check bool) (setting ^ " named in: " ^ msg) true (names 0)
      | server ->
          Server.stop server;
          Alcotest.failf "%s: out-of-range value accepted" setting);
      Alcotest.(check bool) (setting ^ ": no socket left") false
        (Sys.file_exists path))
    [
      ("domains", fun () -> Server.config ~domains:0 ~socket_path ());
      ("cache_capacity", fun () -> Server.config ~cache_capacity:0 ~socket_path ());
      ("max_inflight", fun () -> Server.config ~max_inflight:0 ~socket_path ());
      ( "default_node_limit",
        fun () -> Server.config ~default_node_limit:0 ~socket_path () );
      ("max_node_limit", fun () -> Server.config ~max_node_limit:0 ~socket_path ());
      ( "default_cpu_limit",
        fun () -> Server.config ~default_cpu_limit:0.0 ~socket_path () );
      ( "default_cpu_limit",
        fun () -> Server.config ~default_cpu_limit:nan ~socket_path () );
      ( "max_cpu_limit",
        fun () -> Server.config ~max_cpu_limit:(-1.0) ~socket_path () );
      ( "max_cpu_limit",
        fun () -> Server.config ~max_cpu_limit:infinity ~socket_path () );
      ( "default_par_domains",
        fun () -> Server.config ~default_par_domains:0 ~socket_path () );
      ("slow_ms", fun () -> Server.config ~slow_ms:(-1.0) ~socket_path ());
      ( "metrics_interval",
        fun () -> Server.config ~metrics_interval:0.0 ~socket_path () );
    ]

(* The importance method runs the base evaluation once: C + 1 pipeline
   runs, one probability sweep each, for C components. Its reply carries
   the entries of an in-process [yield_gain], bit for bit. *)
let test_importance () =
  let module Obs = Socy_obs.Obs in
  let module I = Socy_core.Importance in
  let resolved =
    match Proto.resolve base_query with
    | Ok r -> r
    | Error msg -> Alcotest.failf "resolve: %s" msg
  in
  let components = Model.num_components resolved.Proto.model in
  let sweeps = Obs.counter "mdd.sweep.runs" in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      with_server (fun path _server ->
          with_client path (fun c ->
              let before = Obs.counter_value sweeps in
              let reply = roundtrip c (request Proto.Importance (Some base_query)) in
              Alcotest.(check int) "C + 1 probability sweeps" (components + 1)
                (Obs.counter_value sweeps - before);
              let config =
                P.Config.make ~epsilon:base_query.Proto.epsilon
                  ~mv_order:base_query.Proto.mv_order
                  ~bit_order:base_query.Proto.bit_order
                  ~node_limit:
                    (Server.config ~socket_path:path ()).Server.default_node_limit
                  ()
              in
              let entries =
                match
                  I.yield_gain ~config ~names:resolved.Proto.names
                    resolved.Proto.circuit resolved.Proto.model
                with
                | Ok (_, entries) -> entries
                | Error f -> Alcotest.failf "in-process: %s" (P.failure_to_string f)
              in
              let served =
                match member_exn [ "result"; "components" ] reply with
                | Json.List l -> l
                | _ -> Alcotest.fail "components not a list"
              in
              Alcotest.(check int) "one entry per component" (List.length entries)
                (List.length served);
              List.iter2
                (fun (e : I.entry) j ->
                  let float k =
                    match member_exn [ k ] j with
                    | Json.Float f -> Int64.bits_of_float f
                    | _ -> Alcotest.failf "%s not a float" k
                  in
                  Alcotest.(check string) "name" e.I.name (str_at [ "name" ] j);
                  Alcotest.(check bool) "component" true
                    (member_exn [ "component" ] j = Json.Int e.I.component);
                  List.iter
                    (fun (k, v) ->
                      Alcotest.(check int64) (e.I.name ^ ": " ^ k)
                        (Int64.bits_of_float v) (float k))
                    [
                      ("base_yield", e.I.base_yield);
                      ("hardened_yield", e.I.hardened_yield);
                      ("gain", e.I.gain);
                    ])
                entries served)))

(* Four clients, two distinct queries, two worker domains: every client
   of one query sees the same bytes. *)
let test_concurrent_clients_deterministic () =
  with_server (fun path _server ->
      let lambdas = [| 10.0; 12.0; 10.0; 12.0 |] in
      let results = Array.make 4 "" in
      let worker i =
        with_client path (fun c ->
            let q = { base_query with Proto.lambda = lambdas.(i) } in
            let reply = roundtrip c (request ~id:i Proto.Eval (Some q)) in
            results.(i) <- Json.to_string (member_exn [ "result" ] reply))
      in
      let threads = Array.init 4 (fun i -> Thread.create worker i) in
      Array.iter Thread.join threads;
      Alcotest.(check string) "lambda=10 clients agree" results.(0) results.(2);
      Alcotest.(check string) "lambda=12 clients agree" results.(1) results.(3);
      Alcotest.(check bool) "distinct queries differ" false
        (results.(0) = results.(1)))

(* stop() while a request is in flight: the reply still arrives, then the
   daemon drains and run returns. *)
let test_graceful_shutdown_drains () =
  with_server (fun path server ->
      with_client path (fun c ->
          let q = { base_query with Proto.source = Proto.Benchmark "MS4" } in
          send_line c (Json.to_string (request Proto.Eval (Some q)));
          (* Let the request reach admission before initiating shutdown. *)
          Thread.delay 0.1;
          Server.stop server;
          let reply = Json.of_string (input_line c.ic) in
          Alcotest.(check string) "in-flight request still answered" "ok"
            (str_at [ "status" ] reply)))

let test_shutdown_method () =
  with_server (fun path server ->
      with_client path (fun c ->
          let reply = roundtrip c (request Proto.Shutdown None) in
          Alcotest.(check string) "ack" "ok" (str_at [ "status" ] reply));
      (* run returns once the drain completes; bounded by alcotest's
         per-test timeout rather than an explicit one here. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        match Json.member "uptime_s" (Server.stats_json server) with
        | _ when not (Sys.file_exists path) -> ()
        | _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "socket file not unlinked after shutdown"
            else begin
              Thread.delay 0.05;
              wait ()
            end
      in
      wait ())

let test_health_and_draining_reject () =
  with_server (fun path server ->
      with_client path (fun c ->
          let reply = roundtrip c (request Proto.Health None) in
          Alcotest.(check string) "ok" "ok" (str_at [ "status" ] reply);
          Alcotest.(check string) "protocol name" "socyield-serve/1"
            (str_at [ "result"; "protocol" ] reply);
          Server.stop server;
          (* The connection is already open; new work must be refused. *)
          match roundtrip c (request ~id:2 Proto.Health None) with
          | reply ->
              Alcotest.(check string) "draining reply" "shutting-down"
                (str_at [ "error"; "code" ] reply)
          | exception (End_of_file | Sys_error _) ->
              (* The drain won the race and closed the connection first,
                 before the request was written (a broken pipe) or before
                 its reply was read — equally correct: no new work was
                 accepted. *)
              ()))

(* A line nested far past the JSON depth bound is refused with a
   parse-error, quickly, and the connection goes on serving. *)
let test_deep_nesting_rejected () =
  with_server (fun path _ ->
      with_client path (fun c ->
          let depth = 1_000_000 in
          send_line c (String.make depth '[' ^ String.make depth ']');
          let reply = Json.of_string (input_line c.ic) in
          Alcotest.(check string) "code" "parse-error"
            (str_at [ "error"; "code" ] reply);
          let reply = roundtrip c (request ~id:2 Proto.Health None) in
          Alcotest.(check string) "health after" "ok" (str_at [ "status" ] reply)))

(* The metrics method returns a Prometheus exposition; serve's probes are
   registered at module load, so known families are present regardless of
   whether Obs is collecting. *)
let test_metrics_method () =
  with_server (fun path server ->
      with_client path (fun c ->
          let reply = roundtrip c (request Proto.Metrics None) in
          Alcotest.(check string) "status" "ok" (str_at [ "status" ] reply);
          Alcotest.(check string) "content type" "text/plain; version=0.0.4"
            (str_at [ "result"; "content_type" ] reply);
          let text = str_at [ "result"; "exposition" ] reply in
          let lines = String.split_on_char '\n' text in
          let has_sample prefix =
            List.exists
              (fun l -> String.length l >= String.length prefix
                        && String.sub l 0 (String.length prefix) = prefix)
              lines
          in
          List.iter
            (fun family ->
              Alcotest.(check bool) ("family " ^ family) true (has_sample family))
            [
              "socy_serve_requests_total ";
              "# TYPE socy_serve_requests_total counter";
              "socy_serve_latency_eval_bucket{le=\"+Inf\"} ";
            ];
          (* The stats document carries the telemetry satellites: trace
             buffer drops and log emission counts. *)
          let stats = roundtrip c (request ~id:2 Proto.Stats None) in
          (match member_exn [ "result"; "trace"; "dropped" ] stats with
          | Json.Int d -> Alcotest.(check bool) "trace.dropped >= 0" true (d >= 0)
          | _ -> Alcotest.fail "trace.dropped not an int");
          match member_exn [ "result"; "log"; "emitted" ] stats with
          | Json.Int _ -> ignore server
          | _ -> Alcotest.fail "log.emitted not an int"))

(* The correlation tentpole, end to end over the socket: every trace event
   stamped with a request id carries THE id the reply envelope reports, and
   those events span at least two domains (the connection thread's
   serve.request instant on domain 0, the pipeline spans on the executor
   workers) — i.e. the ambient context survives the Executor.run hop and
   the Par team bodies. *)
let test_request_id_propagation () =
  Socy_obs.Obs.set_enabled true;
  Socy_obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Socy_obs.Obs.set_enabled false;
      Socy_obs.Trace.clear ();
      Socy_obs.Obs.reset ())
    (fun () ->
      with_server
        ~tweak:(fun cfg ->
          Server.config ~domains:2 ~default_par_domains:2
            ~socket_path:cfg.Server.socket_path ())
        (fun path _server ->
          with_client path (fun c ->
              let q = { base_query with Proto.par_domains = Some 2 } in
              let reply = roundtrip c (request Proto.Eval (Some q)) in
              Alcotest.(check string) "status" "ok" (str_at [ "status" ] reply);
              let rid =
                match member_exn [ "rid" ] reply with
                | Json.Int r -> r
                | _ -> Alcotest.fail "reply envelope carries no integer rid"
              in
              let events =
                match Json.member "traceEvents" (Socy_obs.Trace.to_json ()) with
                | Some (Json.List l) -> l
                | _ -> Alcotest.fail "trace document has no traceEvents"
              in
              let stamped =
                List.filter_map
                  (fun ev ->
                    match Json.member "args" ev with
                    | Some args -> (
                        match Json.member "rid" args with
                        | Some (Json.Int r) -> Some (ev, r)
                        | _ -> None)
                    | None -> None)
                  events
              in
              Alcotest.(check bool) "some events are rid-stamped" true
                (stamped <> []);
              List.iter
                (fun (ev, r) ->
                  if r <> rid then
                    Alcotest.failf "event %s stamped rid %d, reply says %d"
                      (Json.to_string ev) r rid)
                stamped;
              let tids =
                List.sort_uniq compare
                  (List.map
                     (fun (ev, _) ->
                       match Json.member "tid" ev with
                       | Some (Json.Int t) -> t
                       | _ -> Alcotest.fail "trace event has no tid")
                     stamped)
              in
              Alcotest.(check bool)
                (Printf.sprintf "rid spans >= 2 domains (saw %d)"
                   (List.length tids))
                true
                (List.length tids >= 2))))

(* A connection's thread handle leaves with the connection: 500
   connect/close cycles leave the server value the size it was. *)
let test_connection_threads_released () =
  with_server (fun path server ->
      let open_connections () =
        match Json.member "open_connections" (Server.stats_json server) with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.fail "stats carry no open_connections"
      in
      let settle () =
        let deadline = Unix.gettimeofday () +. 10.0 in
        while open_connections () > 0 && Unix.gettimeofday () < deadline do
          Thread.delay 0.001
        done;
        Alcotest.(check int) "every connection closed" 0 (open_connections ())
      in
      let cycle () = disconnect (connect path) in
      cycle ();
      settle ();
      let before = Obj.reachable_words (Obj.repr server) in
      for _ = 1 to 500 do
        cycle ()
      done;
      settle ();
      let grown = Obj.reachable_words (Obj.repr server) - before in
      if grown > 100 then
        Alcotest.failf "the server value grew by %d words over 500 connections" grown)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "socy_serve"
    [
      ( "codec",
        qsuite [ qcheck_roundtrip; qcheck_wire_roundtrip ]
        @ [ Alcotest.test_case "decode errors" `Quick test_decode_errors ] );
      ( "golden",
        [
          Alcotest.test_case "socyield-serve/1 and socyield-report/1" `Quick
            test_golden_serve;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "replacement" `Quick test_cache_replace;
          Alcotest.test_case "probe isolation" `Quick test_cache_probe_isolation;
          Alcotest.test_case "key discrimination" `Quick
            test_cache_key_discriminates;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache hit is bit-identical" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "budget rejection shape" `Quick
            test_budget_rejection_shape;
          Alcotest.test_case "admission rejection" `Quick test_admission_rejection;
          Alcotest.test_case "invalid query" `Quick test_invalid_query;
          Alcotest.test_case "config rejects bad settings" `Quick
            test_config_rejects;
          Alcotest.test_case "importance" `Quick test_importance;
          Alcotest.test_case "concurrent clients deterministic" `Quick
            test_concurrent_clients_deterministic;
          Alcotest.test_case "graceful shutdown drains" `Quick
            test_graceful_shutdown_drains;
          Alcotest.test_case "shutdown method" `Quick test_shutdown_method;
          Alcotest.test_case "health and draining" `Quick
            test_health_and_draining_reject;
          Alcotest.test_case "metrics method" `Quick test_metrics_method;
          Alcotest.test_case "request id propagation" `Quick
            test_request_id_propagation;
          Alcotest.test_case "deep nesting rejected" `Quick
            test_deep_nesting_rejected;
          Alcotest.test_case "connection threads released" `Quick
            test_connection_threads_released;
        ] );
    ]
