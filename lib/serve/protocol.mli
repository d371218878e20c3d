(** The [socyield-serve/1] wire protocol: a newline-delimited-JSON request
    and response codec over the {!Socy_obs.Json} tree.

    One request per line, one response line per request, in order. A
    request names a method and, for the evaluation methods, a query: a
    circuit source (built-in benchmark or fault-tree expression), the
    defect-model parameters, and the pipeline configuration. The full
    wire-format specification — schemas, error taxonomy, versioning rules,
    worked [nc]/[socat] examples — lives in [docs/PROTOCOL.md]; this module
    is its executable counterpart, shared by the daemon ({!Server}), the
    [socyield query] client, and the test suite.

    Everything here is pure: parsing, printing, cache-key derivation and
    the typed-failure mapping never touch sockets or global state. *)

module Json = Socy_obs.Json

(** Protocol major version, [1]. A request whose [socyield-serve] field
    carries any other value is answered with an [`Unsupported_version]
    error naming this supported version. *)
val version : int

(** {1 Requests} *)

(** Where the circuit comes from. *)
type source =
  | Benchmark of string  (** built-in instance name, e.g. ["MS2"] *)
  | Fault_tree of string  (** expression over [x0, x1, …] *)

(** One evaluation query: source, defect model, pipeline configuration.
    [node_limit]/[cpu_limit] are {e requests} — the server admits, clamps
    to its defaults, or rejects them (see {!Server}). *)
type query = {
  source : source;
  lambda : float;  (** expected manufacturing defects (negative binomial) *)
  alpha : float;  (** negative-binomial clustering parameter *)
  p_lethal : float;  (** ΣP_i for fault-tree sources (uniform over inputs) *)
  epsilon : float;  (** absolute yield error requirement *)
  mv_order : Socy_order.Scheme.mv_order;
  bit_order : Socy_order.Scheme.bit_order;
  node_limit : int option;  (** live-node budget; [None] = server default *)
  cpu_limit : float option;  (** CPU-seconds budget; [None] = server default *)
  reorder : bool;
      (** sift during the coded-ROBDD build. Results are bit-identical
          either way (the order is walked back before evaluation); only
          the transient peak and the [reorder_*] report fields change.
          Encoded on the wire only when [true]. *)
  par_domains : int option;
      (** domains used {e inside} this evaluation: a team of that many
          converts the sequentially built coded ROBDD layer by layer;
          [None] = the server's [--par-domains] default. Every result
          field is identical across team sizes; only timings differ.
          Combines with [reorder]. Encoded on the wire only when set. *)
}

(** The protocol methods. [Eval], [Conditional_yields] and [Importance]
    carry a {!query} and run the pipeline; [Stats], [Metrics], [Health]
    and [Shutdown] are control methods answered by the server itself
    ([Metrics] returns the Prometheus text exposition of the whole
    instrument registry — see {!Socy_obs.Export}). *)
type meth =
  | Eval
  | Conditional_yields
  | Importance
  | Stats
  | Metrics
  | Health
  | Shutdown

type request = {
  id : Json.t;
      (** echoed verbatim in the response; [Null] when the client sent
          none *)
  meth : meth;
  query : query option;  (** [Some] iff [meth] is an evaluation method *)
}

(** Wire name of a method, e.g. ["conditional-yields"]. *)
val meth_name : meth -> string

(** Inverse of {!meth_name}; [None] for unknown names. *)
val meth_of_name : string -> meth option

(** [is_evaluation m] is true for the methods that carry a query and run
    the pipeline ([Eval], [Conditional_yields], [Importance]). *)
val is_evaluation : meth -> bool

(** {1 Error taxonomy}

    Every error response carries one of these machine-readable codes (see
    {!error_code_name} for the wire strings). *)

type error_code =
  | Parse_error  (** the request line is not valid JSON *)
  | Invalid_request
      (** valid JSON, but not a well-formed request: missing/ill-typed
          fields, unknown benchmark, fault-tree syntax error, … *)
  | Unknown_method
  | Unsupported_version
  | Budget_exhausted
      (** the admitted run hit its node or CPU budget; the [details]
          object says which (the wire form of {!Socy_core.Pipeline.failure}) *)
  | Admission_rejected
      (** the request was refused before running: queue full, or a
          requested budget above the server's cap *)
  | Shutting_down  (** the server is draining and accepts no new work *)
  | Internal  (** unexpected exception; the run is not cached *)

(** Wire string of a code, e.g. ["budget-exhausted"]. *)
val error_code_name : error_code -> string

(** {1 Codec} *)

(** [request_to_json r] is the canonical JSON encoding of [r] — every
    query field explicit, so [request_of_json (request_to_json r) = Ok r]
    (the qcheck round-trip property in [test_serve]). *)
val request_to_json : request -> Json.t

(** [request_of_json j] validates the envelope (version, method) and the
    query. Errors carry the code to answer with and a human-readable
    message. *)
val request_of_json : Json.t -> (request, error_code * string) result

(** [parse_request line] is {!request_of_json} after JSON parsing;
    a malformed line yields [`Parse_error]. *)
val parse_request : string -> (request, error_code * string) result

(** [ok_response ~id ?cache ?elapsed_ms result] assembles a success
    envelope. [result] is the deterministic payload; [cache]
    (["hit"]/["miss"]) and [elapsed_ms] are per-execution metadata kept
    {e outside} [result] so cache hits replay payloads bit-identically. *)
val ok_response :
  id:Json.t -> ?cache:string -> ?elapsed_ms:float -> Json.t -> Json.t

(** [error_response ~id ?cache ?details code msg] assembles an error
    envelope; [details] lands as an object under ["details"]. *)
val error_response :
  id:Json.t ->
  ?cache:string ->
  ?details:(string * Json.t) list ->
  error_code ->
  string ->
  Json.t

(** The wire form of a typed pipeline failure: the error code
    ([Budget_exhausted] for budgets), the {!Socy_core.Pipeline.failure_to_string}
    message, and the details fields ([kind], [stage], and [peak_at_failure]
    or [elapsed_s]). Deterministic for [Node_budget] failures, so their
    error replies are cacheable. *)
val failure_error :
  Socy_core.Pipeline.failure -> error_code * string * (string * Json.t) list

(** {1 Results} *)

(** The deterministic report fields, in canonical order: [yield_lower],
    [yield_upper], [p_unusable], [m], [p_lethal], [robdd_peak],
    [robdd_size], [romdd_size], [num_binary_vars], [num_groups],
    [gate_count], [reorder_runs], [reorder_swaps] — the
    {!Socy_core.Pipeline.report} minus every timing/counter field, so two
    runs of the same query produce bit-identical JSON (sifting is
    deterministic, so the reorder counters replay bit-identically too).
    [socyield eval --metrics json] builds its [report] object from the
    same list. *)
val report_fields : Socy_core.Pipeline.report -> (string * Json.t) list

(** {1 Query resolution and cache keys} *)

(** What a query resolves to: the circuit, the full defect model, and the
    per-component display names (benchmarks carry their own). *)
type resolved = {
  circuit : Socy_logic.Circuit.t;
  model : Socy_defects.Model.t;
  names : string array;
}

(** [resolve q] builds the circuit and model, or a message for an
    [`Invalid_request] reply (unknown benchmark, syntax error, no
    components, a fault tree's [p_lethal] outside (0, 1], or whatever
    {!Socy_defects.Distribution.negative_binomial} and
    {!Socy_defects.Model.create} reject). Every front end resolves its
    input here: the daemon, [socyield eval] and the other one-shot
    commands. *)
val resolve : query -> (resolved, string) result

(** [cache_key ~meth ~resolved q] is the cross-request cache key: an MD5
    digest over the {e structural} circuit serialization (so two
    expressions denoting the same DAG share entries), the exact bit
    patterns of the model parameters, the ordering scheme, ε, the
    effective budgets, the {e requested} reorder flag and the method.
    [node_limit]/[cpu_limit] must be the {e effective} values after the
    server applied its defaults, so a defaulted and an explicit-equal
    request share one entry. The reorder flag is keyed as requested —
    never any post-sift permutation — so replay stays bit-identical.
    [par_domains] must be the {e effective} team size (server default
    applied). Results are identical across team sizes, so keying it
    only separates entries that would be equal. *)
val cache_key :
  meth:meth ->
  resolved:resolved ->
  node_limit:int ->
  cpu_limit:float option ->
  par_domains:int ->
  query ->
  string
