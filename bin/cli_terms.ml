(* Shared Cmdliner term groups for the socyield CLI.

   Every subcommand that evaluates something composes its interface from
   these groups instead of redeclaring flags, so `eval`, `sweep`,
   `tune`, `query` and `campaign` cannot drift apart on spelling, defaults
   or validation:

   - [Model]    what to evaluate: fault tree / benchmark axes and the
                defect-model parameters, as a [Protocol.query];
   - [Budget]   how hard to try: epsilon, node/cpu budgets, batch
                domains (0 resolved to the recommended count) and wall
                budget;
   - [Ordering] variable-ordering schemes, dynamic reordering,
                intra-problem domains, and the tuned-registry override;
   - [Out]      metrics/trace emission, output-file plumbing and the
                --progress printer.

   [eval_query_term] and [grid_term] combine them into the query `eval`
   and `query` share and the grid `sweep` and `campaign run` share. No
   range is checked here. A query resolves through [Protocol.resolve],
   engine settings through [Pipeline.Config.make] and grids through
   [Campaign.validate], exactly as the daemon does; their errors become
   the CLI's usage error. *)

module S = Socy_benchmarks.Suite
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module Json = Socy_obs.Json
module Trace = Socy_obs.Trace
module Proto = Socy_serve.Protocol
module Campaign = Socy_campaign.Campaign
open Cmdliner

(* A usage error: one line on standard error, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("socyield: " ^ msg);
      exit 2)
    fmt

(* [checked f] runs a library constructor on user input; the
   [Invalid_argument] it raises for an out-of-range value is a usage
   error. *)
let checked f = try f () with Invalid_argument msg -> usage_error "%s" msg

(* ------------------------------------------------------------------ *)
(* Model parameters                                                    *)
(* ------------------------------------------------------------------ *)

module Model = struct
  let fault_tree_arg =
    let doc =
      "Fault-tree expression over component-failed variables x0, x1, …, e.g. \
       'x0 & x1 | atleast(2; x2, x3, x4)'. The output is 1 iff the system is \
       NOT functioning."
    in
    Arg.(
      value & opt (some string) None & info [ "f"; "fault-tree" ] ~docv:"EXPR" ~doc)

  let benchmark_arg =
    let doc = "Built-in benchmark instance (MSn or ESENnxm), e.g. MS4, ESEN8x2." in
    Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

  let benchmarks_arg =
    let doc = "Comma-separated built-in benchmark instances, e.g. MS2,MS4,ESEN4x1." in
    Arg.(value & opt (list string) [] & info [ "b"; "benchmarks" ] ~docv:"NAMES" ~doc)

  let lambda_arg =
    let doc = "Expected number of manufacturing defects (negative binomial)." in
    Arg.(value & opt float 10.0 & info [ "lambda" ] ~docv:"FLOAT" ~doc)

  let lambdas_arg =
    let doc = "Comma-separated expected defect counts (the defect-density axis)." in
    Arg.(value & opt (list float) [ 10.0; 20.0 ] & info [ "lambdas" ] ~docv:"FLOATS" ~doc)

  let alpha_arg =
    let doc =
      "Negative binomial clustering parameter (clustering grows as it shrinks)."
    in
    Arg.(value & opt float S.alpha & info [ "alpha" ] ~docv:"FLOAT" ~doc)

  let p_lethal_arg =
    let doc =
      "P_L = sum of the P_i: probability that a given defect is lethal. Used \
       with --fault-tree, where P_i is uniform over components; benchmarks \
       carry their own per-component ratios."
    in
    Arg.(value & opt float 0.1 & info [ "p-lethal" ] ~docv:"FLOAT" ~doc)

  (* -f / -b and the defect model as a protocol query, with the
     protocol's defaults in the engine fields. [source_term] and
     [query_term] yield thunks, so a missing or doubled source is reported
     only by a command that needs one. *)
  let query_of source lambda alpha p_lethal () =
    {
      Proto.source = source ();
      lambda;
      alpha;
      p_lethal;
      epsilon = S.epsilon;
      mv_order = Scheme.Heur H.Weight;
      bit_order = Scheme.Ml;
      node_limit = None;
      cpu_limit = None;
      reorder = false;
      par_domains = None;
    }

  let source_term =
    let pick fault_tree benchmark () =
      match (fault_tree, benchmark) with
      | Some _, Some _ ->
          usage_error "--fault-tree and --benchmark are mutually exclusive"
      | None, None -> usage_error "one of --fault-tree or --benchmark is required"
      | Some expr, None -> Proto.Fault_tree expr
      | None, Some name -> Proto.Benchmark name
    in
    Term.(const pick $ fault_tree_arg $ benchmark_arg)

  let query_term =
    Term.(const query_of $ source_term $ lambda_arg $ alpha_arg $ p_lethal_arg)

  let source_name (q : Proto.query) =
    match q.Proto.source with Proto.Benchmark s | Proto.Fault_tree s -> s

  let resolve q =
    match Proto.resolve q with Ok r -> r | Error msg -> usage_error "%s" msg
end

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

module Budget = struct
  let epsilon_arg =
    let doc = "Absolute yield error requirement (drives the truncation M)." in
    Arg.(value & opt float S.epsilon & info [ "e"; "epsilon" ] ~docv:"FLOAT" ~doc)

  let epsilons_arg =
    let doc = "Comma-separated absolute yield error requirements." in
    Arg.(value & opt (list float) [ S.epsilon ] & info [ "epsilons" ] ~docv:"FLOATS" ~doc)

  let node_limit_arg =
    let doc =
      "Node budget before the run is declared failed: live coded-ROBDD \
       nodes, or, for `campaign run', which builds on the direct route, MDD \
       nodes created."
    in
    Arg.(value & opt int 40_000_000 & info [ "node-limit" ] ~docv:"N" ~doc)

  let cpu_limit_arg =
    let doc =
      "CPU-seconds budget per evaluation; a run that exhausts it is declared \
       failed (the paper's excessive-CPU entries)."
    in
    Arg.(value & opt (some float) None & info [ "cpu-limit" ] ~docv:"SECONDS" ~doc)

  let domains_arg =
    let doc =
      "Worker domains for the batch; 0 means the runtime's recommended \
       domain count."
    in
    let resolve d = if d <= 0 then Socy_batch.Pool.default_domains () else d in
    Term.(const resolve $ Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N" ~doc))

  let wall_budget_arg =
    let doc =
      "Wall-clock budget in seconds for the whole batch; grid points not \
       started when it expires are reported as cancelled."
    in
    Arg.(value & opt (some float) None & info [ "wall-budget" ] ~docv:"SECONDS" ~doc)
end

(* ------------------------------------------------------------------ *)
(* Ordering / reordering / intra-problem parallelism                   *)
(* ------------------------------------------------------------------ *)

module Ordering = struct
  let mv_order_conv =
    let parse s =
      match Scheme.mv_order_of_name s with
      | Some mv -> Ok mv
      | None -> Error (`Msg (Printf.sprintf "unknown mv ordering %S" s))
    in
    Arg.conv
      (parse, fun fmt mv -> Format.pp_print_string fmt (Scheme.mv_order_name mv))

  let bit_order_conv =
    let parse s =
      match Scheme.bit_order_of_name s with
      | Some b -> Ok b
      | None -> Error (`Msg (Printf.sprintf "unknown bit ordering %S" s))
    in
    Arg.conv
      (parse, fun fmt b -> Format.pp_print_string fmt (Scheme.bit_order_name b))

  let mv_order_arg =
    let doc = "Multiple-valued variable ordering: wv, wvr, vw, vrw, t, w, h." in
    Arg.(
      value
      & opt mv_order_conv (Scheme.Heur H.Weight)
      & info [ "mv-order" ] ~docv:"ORD" ~doc)

  let mv_orders_arg =
    let doc = "Comma-separated multiple-valued orderings (wv, wvr, vw, vrw, t, w, h)." in
    Arg.(
      value
      & opt (list mv_order_conv) [ Scheme.Heur H.Weight ]
      & info [ "mv-orders" ] ~docv:"ORDS" ~doc)

  let bit_order_arg =
    let doc = "Bit ordering inside each group: ml, lm, t, w, h." in
    Arg.(value & opt bit_order_conv Scheme.Ml & info [ "bit-order" ] ~docv:"ORD" ~doc)

  let reorder_arg =
    let doc =
      "Enable group-aware dynamic variable reordering (Rudell sifting) during \
       the coded-ROBDD build. The order is walked back to the static scheme \
       before the ROMDD conversion, so the yield is bit-identical; only the \
       transient peak changes. `campaign run' builds no ROBDD (direct route) \
       and refuses it."
    in
    Arg.(value & flag & info [ "reorder" ] ~doc)

  let par_domains_arg =
    let doc =
      "Domains used INSIDE one evaluation: the coded-ROBDD build runs on the \
       concurrent engine (sharded unique table, frontier-split APPLY) and the \
       ROMDD conversion distributes each layer across the team. Results — \
       yield, diagram sizes, node ids — are bit-identical to the sequential \
       engine. 1 (the default) is the pure sequential path. Ignored with \
       --reorder (sifting needs the sequential manager); a warning is printed. \
       `campaign run' builds no ROBDD (direct route) and takes only 1."
    in
    Arg.(value & opt int 1 & info [ "par-domains" ] ~docv:"N" ~doc)

  (* The range of --par-domains is Config.make's to check; when the
     pipeline's reorder rule cuts the team down, say so. *)
  let warn_par_fallback ~reorder par_domains =
    if Socy_core.Pipeline.Config.team_domains ~reorder par_domains < par_domains
    then begin
      Socy_obs.Log.warn "cli.par_fallback"
        ~fields:[ ("par_domains", Json.Int par_domains) ]
        "--reorder takes precedence over --par-domains; build stays sequential";
      Printf.eprintf
        "socyield: --reorder takes precedence over --par-domains — the build \
         stays sequential (in-place sifting and the concurrent store are \
         mutually exclusive)\n%!"
    end

  let registry_arg =
    let doc =
      "Path of the tuned-ordering registry (the versioned text file written \
       by 'socyield tune')."
    in
    Arg.(value & opt string "orderings.tsv" & info [ "registry" ] ~docv:"FILE" ~doc)

  let tuned_arg =
    let doc =
      "Resolve the ordering scheme and reorder flag from the registry entry \
       for the --benchmark family (see 'socyield tune'); overrides \
       --mv-order/--bit-order/--reorder."
    in
    Arg.(value & flag & info [ "tuned" ] ~doc)

  (* --tuned resolution, shared by eval and query: the registry entry for
     the benchmark family replaces the static flags. *)
  let resolve_tuned ~tuned ~registry ~source ~mv ~bits ~reorder =
    if not tuned then (mv, bits, reorder)
    else
      match source with
      | Proto.Fault_tree _ ->
          usage_error
            "--tuned needs --benchmark (the registry is keyed by benchmark \
             family)"
      | Proto.Benchmark family -> (
          let entries =
            try Socy_order.Registry.load registry
            with Failure msg -> usage_error "%s" msg
          in
          match Socy_order.Registry.find entries ~family with
          | None ->
              usage_error
                "no tuned ordering for %S in %s — run 'socyield tune -b %s' first"
                family registry family
          | Some e -> Socy_order.Registry.(e.mv, e.bit, e.reorder))
end

(* ------------------------------------------------------------------ *)
(* The evaluation query and the campaign grid                          *)
(* ------------------------------------------------------------------ *)

(* The 11 flags `eval` and `query` share, as the query both send through
   [Protocol.resolve]; a thunk, like [Model.query_term], so `query` can
   skip it (and --tuned) for its control methods. *)
let eval_query_term =
  let make query epsilon mv bits reorder tuned registry () =
    let q = query () in
    let mv_order, bit_order, reorder =
      Ordering.resolve_tuned ~tuned ~registry ~source:q.Proto.source ~mv ~bits
        ~reorder
    in
    { q with Proto.epsilon; mv_order; bit_order; reorder }
  in
  Term.(
    const make $ Model.query_term $ Budget.epsilon_arg $ Ordering.mv_order_arg
    $ Ordering.bit_order_arg $ Ordering.reorder_arg $ Ordering.tuned_arg
    $ Ordering.registry_arg)

(* The nine grid fields `sweep` and `campaign run` share; the command
   supplies the name and the CPU budget. *)
let grid_term =
  let make benchmarks lambdas epsilons mv_orders bit_order alpha node_limit
      reorder par_domains ~name ~cpu_limit =
    {
      Campaign.name;
      benchmarks;
      lambdas;
      epsilons;
      mv_orders;
      bit_order;
      alpha;
      node_limit;
      cpu_limit;
      reorder;
      par_domains;
    }
  in
  Term.(
    const make $ Model.benchmarks_arg $ Model.lambdas_arg $ Budget.epsilons_arg
    $ Ordering.mv_orders_arg $ Ordering.bit_order_arg $ Model.alpha_arg
    $ Budget.node_limit_arg $ Ordering.reorder_arg $ Ordering.par_domains_arg)

(* ------------------------------------------------------------------ *)
(* Metrics / trace output                                              *)
(* ------------------------------------------------------------------ *)

module Out = struct
  let metrics_arg =
    let doc =
      "Emit a run report with per-stage wall times and decision-diagram engine \
       metrics: 'json' (machine-readable) or 'pretty' (human-readable). \
       Enables the observability layer for the run."
    in
    Arg.(
      value
      & opt (some (enum [ ("json", `Json); ("pretty", `Pretty) ])) None
      & info [ "metrics" ] ~docv:"FORMAT" ~doc)

  let metrics_out_arg =
    let doc = "Write the --metrics report to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

  let trace_arg =
    let doc =
      "Write a Chrome trace-event JSON timeline of the run to $(docv) \
       (loadable in Perfetto or chrome://tracing): one row per worker \
       domain with pipeline-stage and batch-job spans, engine GC/resize \
       instants. Enables the observability layer for the run, like \
       --metrics."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

  (* Create the missing ancestors of an output path, so --metrics-out and
     --trace can point straight into a fresh results directory. *)
  let rec mkdir_p dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let with_out_file ~what out f =
    match out with
    | None -> f stdout
    | Some path ->
        let oc =
          try
            mkdir_p (Filename.dirname path);
            open_out path
          with
          | Sys_error msg ->
              Printf.eprintf "socyield: cannot write %s: %s\n" what msg;
              exit 1
          | Unix.Unix_error (e, _, at) ->
              Printf.eprintf "socyield: cannot write %s %s: %s (%s)\n" what path
                (Unix.error_message e) at;
              exit 1
        in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

  let with_metrics_channel out f = with_out_file ~what:"metrics" out f

  (* --progress, as the callback a batch takes: it runs on whichever
     worker domain finished the job, and the mutex keeps concurrent
     completions from interleaving one line. *)
  let progress_arg =
    let doc =
      "Print a live progress line to standard error as grid points finish \
       (updated in place on a terminal, one line per job otherwise)."
    in
    let printer = function
      | false -> None
      | true ->
          let lock = Mutex.create () in
          let tty = Unix.isatty Unix.stderr in
          Some
            (fun ~completed ~total ~label ->
              Mutex.lock lock;
              if tty then begin
                Printf.eprintf "\r\027[2K[%d/%d] %s%!" completed total label;
                if completed = total then prerr_newline ()
              end
              else Printf.eprintf "[%d/%d] %s\n%!" completed total label;
              Mutex.unlock lock)
    in
    Term.(const printer $ Arg.(value & flag & info [ "progress" ] ~doc))

  let write_trace out =
    match out with
    | None -> ()
    | Some _ ->
        with_out_file ~what:"trace" out (fun oc ->
            Json.to_channel oc (Trace.to_json ()));
        let dropped = Trace.dropped_count () in
        if dropped > 0 then
          Printf.eprintf
            "socyield: trace buffer overflow — %d event(s) dropped (per-domain \
             cap %d)\n"
            dropped Trace.capacity
end
