(* Tests for the cross-domain timeline (Socy_obs.Trace) and the GC
   accounting (Socy_obs.Memory): a genuinely two-domain batch must render
   as a Chrome trace-event document with two distinct tids and correctly
   nested begin/end pairs that Socy_obs.Json parses back cleanly, and
   every pipeline report must carry a GC delta per stage whether or not
   the observability flag is up. *)

module P = Socy_core.Pipeline
module Pool = Socy_batch.Pool
module Campaign = Socy_campaign.Campaign
module S = Socy_benchmarks.Suite
module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Memory = Socy_obs.Memory
module Json = Socy_obs.Json

(* Tracing shares the process-wide Obs flag: start from a clean slate and
   leave everything off and empty for whoever runs next. *)
let with_tracing f () =
  Obs.reset ();
  Trace.clear ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Trace.clear ();
      Obs.reset ())
    f

let spin_for seconds =
  let t0 = Obs.now () in
  while Obs.now () -. t0 < seconds do
    ignore (Sys.opaque_identity (ref 0))
  done

(* ------------------------------------------------------------------ *)
(* Decoding a trace document                                           *)
(* ------------------------------------------------------------------ *)

type ev = { ev_name : string; ev_ph : string; ev_ts : float; ev_tid : int; ev_json : Json.t }

let decode doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      List.map
        (fun e ->
          let str k =
            match Json.member k e with
            | Some (Json.String s) -> s
            | _ -> Alcotest.failf "event lacks string %S: %s" k (Json.to_string e)
          in
          let num k =
            match Option.bind (Json.member k e) Json.to_float with
            | Some f -> f
            | None -> Alcotest.failf "event lacks number %S: %s" k (Json.to_string e)
          in
          let ph = str "ph" in
          {
            ev_name = str "name";
            ev_ph = ph;
            (* thread_name metadata rows carry no timestamp *)
            ev_ts = (if ph = "M" then 0.0 else num "ts");
            ev_tid = int_of_float (num "tid");
            ev_json = e;
          })
        evs
  | _ -> Alcotest.fail "document has no traceEvents list"

(* Every event carries the Chrome trace-event required fields. *)
let check_event_fields events =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: known phase %S" e.ev_name e.ev_ph)
        true
        (List.mem e.ev_ph [ "B"; "E"; "i"; "C"; "M" ]);
      Alcotest.(check bool) (e.ev_name ^ ": ts non-negative") true (e.ev_ts >= 0.0);
      Alcotest.(check bool) (e.ev_name ^ ": tid non-negative") true (e.ev_tid >= 0);
      Alcotest.(check bool) (e.ev_name ^ ": pid present") true
        (Json.member "pid" e.ev_json <> None);
      if e.ev_ph = "i" then
        Alcotest.(check bool) (e.ev_name ^ ": instant carries scope") true
          (Json.member "s" e.ev_json = Some (Json.String "t")))
    events

(* [to_json] sorts by timestamp, stable, so per-tid order is chronological:
   walking each tid's events with a stack, every E must close the innermost
   open B of the same name, and nothing may stay open at the end. *)
let check_nesting events =
  let stacks = Hashtbl.create 8 in
  let stack tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  List.iter
    (fun e ->
      match e.ev_ph with
      | "B" -> Hashtbl.replace stacks e.ev_tid (e.ev_name :: stack e.ev_tid)
      | "E" -> (
          match stack e.ev_tid with
          | top :: rest ->
              Alcotest.(check string)
                (Printf.sprintf "tid %d: E closes innermost B" e.ev_tid)
                top e.ev_name;
              Hashtbl.replace stacks e.ev_tid rest
          | [] -> Alcotest.failf "tid %d: E %S with no open span" e.ev_tid e.ev_name)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid stack ->
      Alcotest.(check (list string))
        (Printf.sprintf "tid %d: every span closed" tid)
        [] stack)
    stacks

let distinct_tids events =
  List.filter_map (fun e -> if e.ev_ph = "M" then None else Some e.ev_tid) events
  |> List.sort_uniq compare

(* Parse round trip plus all the structural checks; returns the decoded
   events for test-specific assertions. *)
let check_document doc =
  Alcotest.(check bool) "document round trips through Json" true
    (Json.of_string (Json.to_string doc) = doc);
  let events = decode doc in
  check_event_fields events;
  check_nesting events;
  events

(* ------------------------------------------------------------------ *)
(* Pool on two domains                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_two_domain_trace () =
  let xs = Array.init 16 Fun.id in
  let out =
    Pool.parallel_map ~domains:2
      (fun i ->
        spin_for 0.004;
        i)
      xs
  in
  Alcotest.(check int) "all jobs done" 16
    (Array.fold_left
       (fun acc -> function Pool.Done _ -> acc + 1 | _ -> acc)
       0 out);
  let events = check_document (Trace.to_json ()) in
  let tids = distinct_tids events in
  Alcotest.(check bool)
    (Printf.sprintf "two timeline rows (tids: %s)"
       (String.concat "," (List.map string_of_int tids)))
    true
    (List.length tids >= 2);
  (* both worker spans made the timeline, and each carries its jobs *)
  List.iter
    (fun w ->
      Alcotest.(check bool) (w ^ " span begun") true
        (List.exists (fun e -> e.ev_name = w && e.ev_ph = "B") events))
    [ "batch.worker-0"; "batch.worker-1" ];
  Alcotest.(check int) "one begin/end pair per job" 16
    (List.length (List.filter (fun e -> e.ev_name = "batch.job" && e.ev_ph = "B") events));
  (* one thread_name metadata row per domain that ever buffered *)
  let meta_tids =
    List.filter_map (fun e -> if e.ev_ph = "M" then Some e.ev_tid else None) events
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "metadata labels every event row" true
    (List.for_all (fun tid -> List.mem tid meta_tids) tids)

let test_on_done_sees_every_job () =
  let seen = Atomic.make 0 in
  let out =
    Pool.parallel_map ~domains:2
      ~on_done:(fun i -> function
        | Pool.Done j -> if i = j then Atomic.incr seen
        | _ -> ())
      Fun.id (Array.init 24 Fun.id)
  in
  Alcotest.(check int) "all done" 24 (Array.length out);
  Alcotest.(check int) "callback fired once per job with its index" 24
    (Atomic.get seen)

(* ------------------------------------------------------------------ *)
(* A sweep-shaped batch: pipeline jobs on two domains                  *)
(* ------------------------------------------------------------------ *)

let bench_rows labels =
  let rows = S.table_rows () in
  List.map (fun l -> List.find (fun r -> S.row_label r = l) rows) labels

let test_sweep_trace () =
  let grid =
    {
      Campaign.name = "trace";
      benchmarks = [ "MS2"; "MS4" ];
      lambdas = [ 10.0 ];
      epsilons = [ S.epsilon ];
      mv_orders = [ P.default_config.P.mv_order ];
      bit_order = P.default_config.P.bit_order;
      alpha = S.alpha;
      node_limit = P.default_config.P.node_limit;
      cpu_limit = None;
      reorder = false;
      par_domains = 1;
    }
  in
  let progressed = Atomic.make 0 in
  let c =
    match
      Campaign.run ~domains:2
        ~progress:(fun ~completed:_ ~total ~label:_ ->
          Alcotest.(check int) "progress total" 2 total;
          Atomic.incr progressed)
        grid
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "campaign run failed: %s" msg
  in
  List.iter
    (fun (row : Campaign.row) ->
      match row.Campaign.result with
      | Ok _ -> ()
      | Error _ as r ->
          Alcotest.failf "%s failed: %s"
            (Campaign.point_label row.Campaign.point)
            (Campaign.status_name r))
    c.Campaign.rows;
  Alcotest.(check int) "progress fired per job" 2 (Atomic.get progressed);
  let events = check_document (Trace.to_json ()) in
  Alcotest.(check bool) "two rows" true (List.length (distinct_tids events) >= 2);
  (* the batch umbrella, a pipeline span per job, and per-stage GC instants *)
  let count name ph =
    List.length (List.filter (fun e -> e.ev_name = name && e.ev_ph = ph) events)
  in
  Alcotest.(check int) "one batch span" 1 (count "batch" "B");
  Alcotest.(check int) "one pipeline span per job" 2 (count "pipeline" "B");
  Alcotest.(check bool) "per-stage GC instants recorded" true
    (count "gc.stage" "i" > 0);
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped_count ())

(* ------------------------------------------------------------------ *)
(* Reports carry GC deltas with or without the flag                    *)
(* ------------------------------------------------------------------ *)

let check_stage_gc (rep : P.report) =
  Alcotest.(check (list string))
    "stage_gc keys mirror stage_times"
    (List.map fst rep.P.stage_times)
    (List.map fst rep.P.stage_gc);
  List.iter
    (fun (stage, d) ->
      Alcotest.(check bool) (stage ^ ": collection counts non-negative") true
        (d.Memory.minor_collections >= 0
        && d.Memory.major_collections >= 0
        && d.Memory.compactions >= 0);
      Alcotest.(check bool) (stage ^ ": allocation volumes non-negative") true
        (d.Memory.minor_words >= 0.0
        && d.Memory.promoted_words >= 0.0
        && d.Memory.major_words >= 0.0);
      (* heap_words is a growth delta and may be negative across a
         collection; top_heap_words tracks a monotone counter, so its
         delta is never negative *)
      Alcotest.(check bool) (stage ^ ": top-heap delta non-negative") true
        (d.Memory.top_heap_words >= 0))
    rep.P.stage_gc;
  (* the build allocates: at least one stage must show minor allocation *)
  Alcotest.(check bool) "some stage allocated" true
    (List.exists (fun (_, d) -> d.Memory.minor_words > 0.0) rep.P.stage_gc)

let run_ms2 () =
  match bench_rows [ "MS2, l'=1" ] with
  | [ r ] -> (
      match P.run_lethal r.S.instance.S.circuit (S.lethal r) with
      | Ok rep -> rep
      | Error f -> Alcotest.failf "MS2 failed: %s" (P.failure_to_string f))
  | _ -> assert false

let test_stage_gc_disabled () = check_stage_gc (run_ms2 ())
let test_stage_gc_enabled () = check_stage_gc (run_ms2 ())

let test_delta_json_shape () =
  let (), d = Memory.with_gc_delta (fun () -> spin_for 0.001) in
  let doc = Json.of_string (Json.to_string (Memory.delta_to_json d)) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present and numeric") true
        (Option.bind (Json.member k doc) Json.to_float <> None))
    [
      "minor_collections";
      "major_collections";
      "compactions";
      "minor_words";
      "promoted_words";
      "major_words";
      "heap_words";
      "top_heap_words";
    ]

let test_gc_delta_sees_allocation () =
  let s = Memory.sample () in
  let keep = Sys.opaque_identity (Array.init 50_000 (fun i -> float_of_int i)) in
  ignore (Sys.opaque_identity keep.(42));
  let d = Memory.delta_since s in
  Alcotest.(check bool) "allocation visible in the delta" true
    (d.Memory.minor_words +. d.Memory.major_words > 0.0)

(* Right after a minor collection, a small allocation triggers none: the
   word counts must still see it, read at the time of the call rather than
   as of the last minor collection. *)
let test_gc_delta_words_between_collections () =
  Gc.minor ();
  let s = Memory.sample () in
  let cells = Sys.opaque_identity (List.init 1000 Fun.id) in
  let d = Memory.delta_since s in
  ignore (Sys.opaque_identity cells);
  Alcotest.(check bool)
    (Printf.sprintf "minor_words %.0f >= 2000" d.Memory.minor_words)
    true
    (d.Memory.minor_words >= 2000.0)

(* ------------------------------------------------------------------ *)
(* Disabled mode and clear                                             *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Alcotest.(check int) "with_span passes value through" 5
    (Trace.with_span "off.span" (fun () -> 5));
  Trace.instant "off.instant";
  Trace.counter "off.counter" 1.0;
  Alcotest.(check int) "nothing buffered" 0 (Trace.event_count ())

let test_clear_restarts_clock () =
  Trace.with_span "first" (fun () -> spin_for 0.05);
  Alcotest.(check bool) "events before clear" true (Trace.event_count () > 0);
  Trace.clear ();
  Alcotest.(check int) "empty after clear" 0 (Trace.event_count ());
  Trace.with_span "second" (fun () -> ());
  let events = decode (Trace.to_json ()) in
  List.iter
    (fun e ->
      if e.ev_ph <> "M" then
        (* well under the 50ms the pre-clear span burned: the epoch reset *)
        Alcotest.(check bool) "timestamps restarted near zero" true
          (e.ev_ts < 25_000.0))
    events

let () =
  let on = with_tracing in
  let off f () =
    Obs.reset ();
    Trace.clear ();
    Obs.set_enabled false;
    Fun.protect ~finally:(fun () -> Trace.clear ()) f
  in
  Alcotest.run "socy_trace"
    [
      ( "pool",
        [
          Alcotest.test_case "two-domain trace" `Quick (on test_pool_two_domain_trace);
          Alcotest.test_case "on_done callback" `Quick (on test_on_done_sees_every_job);
        ] );
      ( "sweep",
        [ Alcotest.test_case "batch trace and progress" `Quick (on test_sweep_trace) ] );
      ( "stage_gc",
        [
          Alcotest.test_case "populated while disabled" `Quick (off test_stage_gc_disabled);
          Alcotest.test_case "populated while enabled" `Quick (on test_stage_gc_enabled);
          Alcotest.test_case "delta JSON shape" `Quick (off test_delta_json_shape);
          Alcotest.test_case "delta sees allocation" `Quick (off test_gc_delta_sees_allocation);
          Alcotest.test_case "words between minor collections" `Quick
            (off test_gc_delta_words_between_collections);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "disabled is silent" `Quick (off test_disabled_records_nothing);
          Alcotest.test_case "clear restarts the clock" `Quick (on test_clear_restarts_clock);
        ] );
    ]
