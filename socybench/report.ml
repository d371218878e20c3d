(* Metric assembly shared by the workloads: the end-to-end set of the
   untraced run, the per-layer set of the traced run, and the provenance
   stamp printed with every result. *)

open Measure

type provenance = {
  workload : string;
  seed : int;
  traced : bool;
  nproc : int;
  commit : string;
  source_digest : string;
}

(* [usage] names what the workload starts: domains, systhreads and
   connections. Domains and connections must not exceed [nproc].
   Systhreads take turns under their domain's lock, so they run no more
   code at once than their domain does and are reported, not checked. *)
let print_stamp p ~usage =
  let within = List.for_all (fun (k, n) -> k = "systhreads" || n <= p.nproc) usage in
  Printf.printf
    "# stamp {\"workload\": %S, \"seed\": %d, \"traced\": %b, \"nproc\": %d, \
     \"recommended_domain_count\": %d, %s, \"within_nproc\": %b, \"ocaml\": %S, \
     \"commit\": %S, \"source_digest\": %S}\n"
    p.workload p.seed p.traced p.nproc
    (Domain.recommended_domain_count ())
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) usage))
    within Sys.ocaml_version p.commit p.source_digest;
  if not within then
    Printf.eprintf "socybench: %s uses more domains or connections than nproc = %d\n%!"
      p.workload p.nproc

(* The untraced run. On fixed input sets (table4, grid) [latencies] holds
   one median per input over all passes; on serve-mix, every request. *)
type e2e = {
  setup : float list;
  rates : (int * float) list;  (* completions and seconds, per measurement window *)
  rss_peaks : float list;  (* resident high-water mark per measurement window *)
  samples : int;  (* timed evaluations or requests *)
  mean_ms : float;  (* mean latency over all samples *)
  latencies : float array;  (* ms *)
  hits : float array option;  (* serve-mix only: latencies of cache hits *)
  misses : float array option;
}

let end_to_end (t : tally) e =
  let p q xs = quantile q xs in
  (* Workloads without a result cache compute every evaluation: the
     miss columns are the evaluation latency, and the hit columns repeat
     it so that no metric reads 0. *)
  let hits = Option.value e.hits ~default:e.latencies in
  let misses = Option.value e.misses ~default:e.latencies in
  Printf.printf "# samples: %d timed (%d latencies: %d hits, %d misses) over %d windows, set-ups %s s\n"
    e.samples (Array.length e.latencies) (Array.length hits) (Array.length misses) (List.length e.rates)
    (String.concat ", " (List.map (Printf.sprintf "%.4f") e.setup));
  [
    metric "setup_s" "s" (median e.setup);
    metric "throughput_per_s" "1/s" (median_rate e.rates);
    metric "latency_ms.p50" "ms" (p 0.5 e.latencies);
    metric "latency_ms.p90" "ms" (p 0.9 e.latencies);
    metric "hit_latency_ms.p50" "ms" (p 0.5 hits);
    metric "miss_latency_ms.p50" "ms" (p 0.5 misses);
    metric "miss_latency_ms.p90" "ms" (p 0.9 misses);
    metric "ok_ratio" "ratio" (float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted));
    metric "peak_rss_mb" "MiB" (if e.rss_peaks = [] then peak_rss_mb () else median e.rss_peaks);
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   layer that the workload does not reach reads 0. *)
let per_layer_units =
  [
    ("defects.lethal_map_ms", "ms"); ("defects.truncate_ms", "ms"); ("encode.build_ms", "ms");
    ("encode.gates", "count"); ("order.make_ms", "ms"); ("bdd.create_ms", "ms");
    ("bdd.compile_ms", "ms"); ("bdd.peak_nodes", "count"); ("bdd.created_nodes", "count");
    ("bdd.cache_hit_ratio", "ratio"); ("bdd.gc_runs", "count"); ("pbdd.create_ms", "ms");
    ("pbdd.compile_ms", "ms"); ("pbdd.created_nodes", "count"); ("mdd.create_ms", "ms");
    ("mdd.convert_ms", "ms"); ("mdd.romdd_nodes", "count"); ("mdd.sweep_ms", "ms");
    ("pipeline.compose_ms", "ms"); ("pipeline.unaccounted_ms", "ms"); ("batch.busy_ratio", "ratio");
    ("batch.idle_ms", "ms"); ("campaign.run_ms", "ms"); ("serve.decode_us", "us");
    ("serve.resolve_us", "us"); ("serve.cache_key_us", "us"); ("serve.cache_find_us", "us");
    ("serve.cache_add_us", "us"); ("serve.encode_us", "us"); ("serve.handle_us", "us");
    ("serve.server_ms", "ms"); ("serve.outside_ms", "ms"); ("serve.cache_hit_ratio", "ratio");
    ("gc.minor_collections", "count/eval"); ("gc.major_collections", "count/eval");
    ("gc.promoted_mb", "MiB/eval"); ("trace.overhead_ratio", "ratio");
  ]

(* Span names are the metric names without their unit suffix; the root
   span of an evaluation ([pipeline.eval]) reports as [pipeline.compose]. *)
let span_of_metric name =
  let strip suffix =
    let n = String.length name and k = String.length suffix in
    if n > k && String.sub name (n - k) k = suffix then Some (String.sub name 0 (n - k)) else None
  in
  match strip "_ms" with
  | Some "pipeline.compose" -> Some ("pipeline.eval", 1e3)
  | Some s -> Some (s, 1e3)
  | None -> ( match strip "_us" with Some s -> Some (s, 1e6) | None -> None)

(* The traced run: per-layer self time per evaluation (or request) from
   the spans, plus the workload's own counts. [unaccounted] and
   [overhead] are left to run.py, which has the untraced numbers. *)
let per_layer ~spans ~n ~gc ~extra =
  let self = Spans.self_times spans in
  let nf = float_of_int (max 1 n) in
  let from_span name =
    match span_of_metric name with
    | Some (s, scale) when Hashtbl.mem self s && not (List.mem_assoc name extra) ->
        Some (Spans.self_of self s *. scale /. nf, scale)
    | _ -> None
  in
  let value name =
    match (List.assoc_opt name extra, from_span name, name) with
    | Some v, _, _ -> v
    | None, Some (v, _), _ -> v
    | None, None, "gc.minor_collections" -> float_of_int gc.minor /. nf
    | None, None, "gc.major_collections" -> float_of_int gc.major /. nf
    | None, None, "gc.promoted_mb" -> promoted_mb gc.promoted_words /. nf
    | None, None, _ -> 0.0
  in
  let layers =
    List.filter_map
      (fun (name, _) -> Option.map (fun (v, scale) -> (name, v *. 1e3 /. scale)) (from_span name))
      per_layer_units
  in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
  Printf.printf "# layer self time per evaluation (%d evaluations):\n" n;
  List.iter
    (fun (name, v) -> Printf.printf "#   %-24s %12.4f ms  %5.1f%%\n" name v (100.0 *. v /. total))
    layers;
  (List.map (fun (name, u) -> metric name u (value name)) per_layer_units, total)

(* The traced run, as a workload returns it: the layers were timed over
   [evals] evaluations (or requests), and the traced run completed
   [throughput] of them per second (median over windows, as untraced).
   [baseline], when the workload measures it in the same process, is the
   untraced run of the same traced work: its time per evaluation and its
   throughput. Otherwise run.py takes them from an untraced process.
   [other_layers_ms] is time per evaluation spent in timed layers that are
   not spans (batch idle time). *)
type traced = {
  evals : int;
  throughput : float;
  baseline : (float * float) option;
  gc : gc_window;
  extra : (string * float) list;
  other_layers_ms : float;
}
