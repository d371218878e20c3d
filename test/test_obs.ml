(* Unit tests for the observability layer: counter/gauge/histogram/span
   semantics, nested-span timing monotonicity, the disabled-mode no-op
   guarantee, and JSON printing/parsing round trips. *)

module Obs = Socy_obs.Obs
module Sink = Socy_obs.Sink
module Json = Socy_obs.Json

(* Every test runs against the process-wide registry: start clean and leave
   the flag off for whoever runs next. *)
let with_obs ~enabled f () =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let find section name =
  match List.assoc_opt name section with
  | Some v -> v
  | None -> Alcotest.failf "instrument %S not in snapshot" name

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let c = Obs.counter "test.counter" in
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  Alcotest.(check int) "value" 42 (Obs.counter_value c);
  Alcotest.(check int) "snapshot agrees" 42
    (find (Obs.snapshot ()).Obs.counters "test.counter")

let test_counter_registration_idempotent () =
  let a = Obs.counter "test.same" in
  let b = Obs.counter "test.same" in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check int) "both handles hit one counter" 2 (Obs.counter_value a);
  Alcotest.(check int) "snapshot has one entry" 1
    (List.length
       (List.filter (fun (k, _) -> k = "test.same") (Obs.snapshot ()).Obs.counters))

let test_counter_monotonic () =
  let c = Obs.counter "test.mono" in
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.add: counters are monotonic") (fun () -> Obs.add c (-1))

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let test_gauge_tracks_extremes () =
  let g = Obs.gauge "test.gauge" in
  List.iter (Obs.set g) [ 5.0; -2.0; 17.0; 3.0 ];
  let stat = find (Obs.snapshot ()).Obs.gauges "test.gauge" in
  Alcotest.(check (float 0.0)) "last" 3.0 stat.Obs.g_last;
  Alcotest.(check (float 0.0)) "min" (-2.0) stat.Obs.g_min;
  Alcotest.(check (float 0.0)) "max" 17.0 stat.Obs.g_max;
  Alcotest.(check int) "samples" 4 stat.Obs.g_samples

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  let h = Obs.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.hist" in
  List.iter (Obs.observe h) [ 0.5; 1.0; 7.0; 50.0; 5000.0 ];
  let stat = find (Obs.snapshot ()).Obs.histograms "test.hist" in
  Alcotest.(check int) "count" 5 stat.Obs.h_count;
  Alcotest.(check (float 1e-9)) "sum" 5058.5 stat.Obs.h_sum;
  Alcotest.(check (float 0.0)) "min" 0.5 stat.Obs.h_min;
  Alcotest.(check (float 0.0)) "max" 5000.0 stat.Obs.h_max;
  (* cumulative: ≤1 → 2, ≤10 → 3, ≤100 → 4, ≤inf → 5 *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative buckets"
    [ (1.0, 2); (10.0, 3); (100.0, 4); (infinity, 5) ]
    stat.Obs.h_buckets

let test_histogram_bad_buckets () =
  Alcotest.check_raises "nonincreasing rejected"
    (Invalid_argument "Obs.histogram: buckets must be strictly increasing")
    (fun () -> ignore (Obs.histogram ~buckets:[| 2.0; 1.0 |] "test.bad"))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let spin_for seconds =
  let t0 = Obs.now () in
  while Obs.now () -. t0 < seconds do
    ignore (Sys.opaque_identity (ref 0))
  done

let test_span_nesting_and_monotonicity () =
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> spin_for 0.002);
      Obs.with_span "inner" (fun () -> spin_for 0.002));
  let spans = (Obs.snapshot ()).Obs.spans in
  let outer = find spans "outer" in
  let inner = find spans "outer/inner" in
  Alcotest.(check int) "outer ran once" 1 outer.Obs.s_count;
  Alcotest.(check int) "inner aggregated by path" 2 inner.Obs.s_count;
  (* a parent's wall time covers its children's *)
  Alcotest.(check bool) "outer >= inner total" true
    (outer.Obs.s_total >= inner.Obs.s_total);
  Alcotest.(check bool) "totals positive" true (inner.Obs.s_total > 0.0);
  Alcotest.(check bool) "min <= max" true (inner.Obs.s_min <= inner.Obs.s_max);
  Alcotest.(check bool) "total >= count * min" true
    (inner.Obs.s_total >= float_of_int inner.Obs.s_count *. inner.Obs.s_min)

let test_span_records_on_exception () =
  (try
     Obs.with_span "raising" (fun () -> raise Exit)
   with Exit -> ());
  let s = find (Obs.snapshot ()).Obs.spans "raising" in
  Alcotest.(check int) "recorded despite raise" 1 s.Obs.s_count;
  (* and the nesting stack unwound: a new span is top-level again *)
  Obs.with_span "after" (fun () -> ());
  Alcotest.(check bool) "stack unwound" true
    (List.mem_assoc "after" (Obs.snapshot ()).Obs.spans)

let test_span_return_value () =
  Alcotest.(check int) "passes result through" 7 (Obs.with_span "ret" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  let c = Obs.counter "test.off.counter" in
  let g = Obs.gauge "test.off.gauge" in
  let h = Obs.histogram "test.off.hist" in
  Obs.incr c;
  Obs.add c 10;
  Obs.set g 3.0;
  Obs.observe h 1.0;
  Alcotest.(check int) "with_span still runs body" 3
    (Obs.with_span "test.off.span" (fun () -> 3));
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  let snap = Obs.snapshot () in
  Alcotest.(check int) "gauge unsampled" 0
    (find snap.Obs.gauges "test.off.gauge").Obs.g_samples;
  Alcotest.(check int) "histogram empty" 0
    (find snap.Obs.histograms "test.off.hist").Obs.h_count;
  Alcotest.(check bool) "span not recorded" true
    (not (List.mem_assoc "test.off.span" snap.Obs.spans))

let test_reset_clears_values () =
  let c = Obs.counter "test.reset" in
  Obs.incr c;
  Obs.with_span "test.reset.span" (fun () -> ());
  Obs.reset ();
  Alcotest.(check int) "counter zeroed, handle valid" 0 (Obs.counter_value c);
  let s = find (Obs.snapshot ()).Obs.spans "test.reset.span" in
  Alcotest.(check int) "span zeroed" 0 s.Obs.s_count

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Json.to_string v))
    ( = )

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("floats", Json.List [ Json.Float 0.1; Json.Float 1e-9; Json.Float 2.5 ]);
        ("string", Json.String "quotes \" backslash \\ newline \n tab \t");
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("a", Json.List [ Json.Obj [ ("b", Json.Int 1) ] ]) ]);
      ]
  in
  Alcotest.check json_testable "compact round trip" v (Json.of_string (Json.to_string v));
  Alcotest.check json_testable "pretty round trip" v
    (Json.of_string (Json.to_string_pretty v))

let test_json_non_finite_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float infinity))

let test_json_parser_details () =
  Alcotest.check json_testable "unicode escape" (Json.String "A\xc3\xa9")
    (Json.of_string {|"Aé"|});
  Alcotest.check json_testable "number forms"
    (Json.List [ Json.Int 3; Json.Float 3.5; Json.Float 300.0 ])
    (Json.of_string "[3, 3.5, 3e2]");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | v -> Alcotest.failf "accepted %S as %s" bad (Json.to_string v))
    [ "{"; "[1,]"; "\"unterminated"; "12 34"; "tru"; "" ]

(* Property form of the round trip: for any value tree, printing (compact
   or pretty) and parsing gives the value back — modulo the one documented
   normalization, non-finite floats printing as null. *)
let rec normalize = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List l -> Json.List (List.map normalize l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, normalize v)) kvs)
  | v -> v

let json_gen =
  let open QCheck.Gen in
  (* raw bytes, control characters and multi-byte UTF-8 all stress the
     escaper; the parser passes non-ASCII bytes through untouched *)
  let string_gen =
    oneof
      [
        string_size ~gen:printable (int_bound 12);
        string_size ~gen:char (int_bound 12);
        oneofl [ "\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x90\xab"; "q\" b\\ n\n t\t"; "" ];
      ]
  in
  let float_gen =
    oneof
      [ float; oneofl [ nan; infinity; neg_infinity; -0.0; 0.1; 1e300; 5e-324 ] ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float_gen;
        map (fun s -> Json.String s) string_gen;
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4) (pair string_gen (tree (depth - 1)))) );
        ]
  in
  sized (fun n -> tree (1 + min 4 (n / 20)))

let prop_json_round_trip =
  QCheck.Test.make ~name:"print/parse round trip (compact and pretty)"
    ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      let expected = normalize v in
      Json.of_string (Json.to_string v) = expected
      && Json.of_string (Json.to_string_pretty v) = expected)

let test_json_deep_nesting () =
  let deep = ref (Json.Int 1) in
  for _ = 1 to 500 do
    deep := Json.List [ Json.Obj [ ("k", !deep) ] ]
  done;
  Alcotest.check json_testable "500 levels survive compact" !deep
    (Json.of_string (Json.to_string !deep));
  Alcotest.check json_testable "500 levels survive pretty" !deep
    (Json.of_string (Json.to_string_pretty !deep))

(* The parser refuses arrays and objects nested past [Json.max_depth], and
   refuses a hostile depth at once instead of recursing through it. *)
let test_json_nesting_bound () =
  let nested d = String.make d '[' ^ String.make d ']' in
  let rec depth = function
    | Json.List [] -> 1
    | Json.List [ v ] -> 1 + depth v
    | _ -> Alcotest.fail "not a chain of one-element arrays"
  in
  Alcotest.(check int) "depth = bound parses" Json.max_depth
    (depth (Json.of_string (nested Json.max_depth)));
  (match Json.of_string (nested (Json.max_depth + 1)) with
  | exception Json.Parse_error msg ->
      Alcotest.(check string) "message names the bound"
        (Printf.sprintf "nesting deeper than %d levels at offset %d" Json.max_depth
           Json.max_depth)
        msg
  | _ -> Alcotest.fail "depth = bound + 1 accepted");
  let hostile = nested 1_000_000 in
  let t0 = Sys.time () in
  (match Json.of_string hostile with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "depth 10^6 accepted");
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 10^6 refused in %.3f s CPU" dt)
    true (dt < 0.1)

let test_json_accessors () =
  let v = Json.of_string {|{"a": {"b": 2}, "c": 1.5}|} in
  Alcotest.(check (option (float 0.0))) "nested member" (Some 2.0)
    Option.(bind (Json.member "a" v) (Json.member "b") |> Fun.flip bind Json.to_float);
  Alcotest.(check (option (float 0.0))) "float member" (Some 1.5)
    Option.(bind (Json.member "c" v) Json.to_float);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" v = None)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let populate () =
  Obs.add (Obs.counter "sink.counter") 7;
  Obs.set (Obs.gauge "sink.gauge") 2.5;
  Obs.observe (Obs.histogram ~buckets:[| 1.0 |] "sink.hist") 0.5;
  Obs.with_span "sink.span" (fun () -> ())

let test_json_sink_round_trip () =
  populate ();
  let doc = Json.of_string (Json.to_string (Sink.snapshot_to_json (Obs.snapshot ()))) in
  let get path =
    List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some doc) path
  in
  Alcotest.(check (option (float 0.0))) "counter survives" (Some 7.0)
    (Option.bind (get [ "counters"; "sink.counter" ]) Json.to_float);
  Alcotest.(check (option (float 0.0))) "gauge last survives" (Some 2.5)
    (Option.bind (get [ "gauges"; "sink.gauge"; "last" ]) Json.to_float);
  Alcotest.(check (option (float 0.0))) "histogram count survives" (Some 1.0)
    (Option.bind (get [ "histograms"; "sink.hist"; "count" ]) Json.to_float);
  Alcotest.(check (option (float 0.0))) "span count survives" (Some 1.0)
    (Option.bind (get [ "spans"; "sink.span"; "count" ]) Json.to_float)

let test_pretty_sink_output () =
  populate ();
  let path = Filename.temp_file "socy_obs" ".txt" in
  let oc = open_out path in
  Sink.pretty oc ~label:"unit" (Obs.snapshot ());
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s" needle)
        true
        (let n = String.length needle and l = String.length contents in
         let rec scan i = i + n <= l && (String.sub contents i n = needle || scan (i + 1)) in
         scan 0))
    [ "unit"; "sink.counter"; "sink.gauge"; "sink.hist"; "sink.span" ]

(* ------------------------------------------------------------------ *)
(* Doc: validated metrics/trace document loading                       *)
(* ------------------------------------------------------------------ *)

module Doc = Socy_obs.Doc

let test_doc_metrics_rows () =
  match Doc.rows_of_string {|{"a": {"b": 2, "c": [1.5, true]}, "s": "skip"}|} with
  | Error msg -> Alcotest.failf "unexpected error: %s" msg
  | Ok rows ->
      Alcotest.(check (list (pair string (float 0.0))))
        "numeric leaves flattened"
        [ ("a.b", 2.0); ("a.c[0]", 1.5) ]
        rows

let test_doc_trace_rows () =
  let doc =
    {|{"traceEvents": [
        {"ph": "M", "name": "process_name"},
        {"ph": "B", "name": "stage", "tid": 1, "ts": 100.0},
        {"ph": "E", "name": "stage", "tid": 1, "ts": 1100.0},
        {"ph": "i", "name": "gc"}
      ]}|}
  in
  match Doc.rows_of_string doc with
  | Error msg -> Alcotest.failf "unexpected error: %s" msg
  | Ok rows ->
      Alcotest.(check (option (float 1e-9)))
        "span total aggregated" (Some 1.0)
        (List.assoc_opt "trace.stage.total_ms" rows);
      Alcotest.(check (option (float 0.0)))
        "instant counted" (Some 1.0)
        (List.assoc_opt "trace.gc.events" rows)

(* The regression behind `socyield report` exiting non-zero: malformed
   documents must be rejected, not flattened into an empty/partial table. *)
let test_doc_rejects_malformed () =
  let err s =
    match Doc.rows_of_string s with
    | Ok _ -> Alcotest.failf "accepted malformed document %s" s
    | Error _ -> ()
  in
  err {|{"traceEvents": "oops"}|};
  err {|{"traceEvents": [{"ph": "B"}, 42]}|};
  err {|{"strings": "only", "null": null}|};
  err {|[1, 2, 3]|};
  err {|{"truncated": |}

(* ------------------------------------------------------------------ *)

let () =
  let on = with_obs ~enabled:true in
  let off = with_obs ~enabled:false in
  Alcotest.run "socy_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick (on test_counter_basics);
          Alcotest.test_case "idempotent registration" `Quick
            (on test_counter_registration_idempotent);
          Alcotest.test_case "monotonic" `Quick (on test_counter_monotonic);
        ] );
      ("gauges", [ Alcotest.test_case "extremes" `Quick (on test_gauge_tracks_extremes) ]);
      ( "histograms",
        [
          Alcotest.test_case "buckets" `Quick (on test_histogram_buckets);
          Alcotest.test_case "validation" `Quick (on test_histogram_bad_buckets);
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and monotonicity" `Quick
            (on test_span_nesting_and_monotonicity);
          Alcotest.test_case "exception safety" `Quick (on test_span_records_on_exception);
          Alcotest.test_case "return value" `Quick (on test_span_return_value);
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no-op" `Quick (off test_disabled_is_noop);
          Alcotest.test_case "reset" `Quick (on test_reset_clears_values);
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick (off test_json_round_trip);
          Alcotest.test_case "non-finite floats" `Quick (off test_json_non_finite_floats);
          Alcotest.test_case "parser details" `Quick (off test_json_parser_details);
          Alcotest.test_case "deep nesting" `Quick (off test_json_deep_nesting);
          Alcotest.test_case "nesting bound" `Quick (off test_json_nesting_bound);
          Alcotest.test_case "accessors" `Quick (off test_json_accessors);
          QCheck_alcotest.to_alcotest prop_json_round_trip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "json round trip" `Quick (on test_json_sink_round_trip);
          Alcotest.test_case "pretty output" `Quick (on test_pretty_sink_output);
        ] );
      ( "doc",
        [
          Alcotest.test_case "metrics rows" `Quick (off test_doc_metrics_rows);
          Alcotest.test_case "trace rows" `Quick (off test_doc_trace_rows);
          Alcotest.test_case "rejects malformed" `Quick
            (off test_doc_rejects_malformed);
        ] );
    ]
