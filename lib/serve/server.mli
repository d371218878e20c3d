(** The [socyield serve] daemon: a long-running newline-delimited-JSON
    server over a Unix-domain socket, answering yield / conditional-yield /
    importance queries with a cross-request result cache.

    {2 Threading model}

    One accept loop (the thread that called {!run}) spawns one (sys)thread
    per client connection; connection threads parse requests, consult the
    {!Cache}, and schedule cache misses on a shared
    {!Socy_batch.Pool.Executor} — a persistent pool of worker {e domains},
    so concurrent clients evaluate in parallel while each pipeline run
    still owns its decision-diagram state exclusively (the batch-engine
    ownership model, one job at a time per domain).

    {2 Admission}

    A request is rejected with an [admission-rejected] error before any
    work happens when (a) its requested [node_limit]/[cpu_limit] exceeds
    the server's caps, or (b) the executor already has [max_inflight]
    submitted-but-unfinished runs. Requests that omit budgets get the
    server defaults; admitted budgets are enforced by the pipeline's typed
    failures, which come back as [budget-exhausted] errors.

    {2 Caching}

    Results are cached under {!Protocol.cache_key} — (circuit structure,
    defect model, ordering scheme, ε, effective budgets, method) — in a
    bounded LRU ({!Cache}). Deterministic outcomes are cached: successful
    payloads and [Node_budget] failures. [Cpu_budget] failures are {e not}
    cached (CPU metering is timing- and co-tenancy-dependent), so a
    transiently slow run does not poison the cache. A cache hit replays
    the stored payload bit-identically and marks the reply with
    [cache = hit].

    {2 Graceful shutdown}

    {!stop} (also triggered by the [shutdown] method and by
    SIGINT/SIGTERM under the CLI) moves the server to draining: the
    listening socket closes, new requests on existing connections are
    answered with [shutting-down], and {!run} returns only after every
    in-flight request has been answered and the executor's worker domains
    have drained and joined — no accepted job is ever dropped.

    {2 Observability}

    The server publishes [serve.requests] / [serve.requests.<method>] /
    [serve.errors] counters, [serve.latency.<method>] histograms
    (seconds), the [serve.inflight] and [serve.connections.open] gauges,
    and the cache's [serve.cache.*] instruments; completed requests land
    on the {!Socy_obs.Trace} timeline as [serve.request] instants, with
    the pipeline's own spans on the worker-domain rows. The [stats]
    endpoint returns all of it as one JSON document, and the [metrics]
    endpoint renders the same registry as a Prometheus text exposition
    ({!Socy_obs.Export}); [metrics_file]/[metrics_interval] additionally
    snapshot that exposition to a file on a timer (atomic
    write-then-rename, final snapshot at shutdown).

    {2 Request correlation}

    Every request line is assigned a monotonically increasing request id
    ([rid], starting at 1) and handled under
    {!Socy_obs.Ctx.with_request}, so every log record, trace event and
    metric instant it causes — including spans emitted on executor
    worker domains and parallel-team domains — carries that id. The rid
    is stamped into the reply envelope (outside [result], so cached
    payloads replay bit-identically), letting a client join its reply
    against the daemon's logs and Perfetto timeline. Structured log
    records ({!Socy_obs.Log}) cover the connection lifecycle
    (accept/close at debug), admissions and rejections, completed
    requests (info), and — when [slow_ms] is set — a [serve.slow]
    warning per over-threshold request carrying the cache-key digest,
    per-stage wall times, peak node counts and effective engine
    settings. *)

module Json = Socy_obs.Json

type config = {
  socket_path : string;  (** Unix-domain socket path to bind *)
  domains : int;  (** worker domains of the executor *)
  cache_capacity : int;  (** LRU entries *)
  max_inflight : int;  (** admission cap on submitted-but-unfinished runs *)
  default_node_limit : int;  (** node budget when the request omits one *)
  max_node_limit : int;  (** requests above this are rejected *)
  default_cpu_limit : float option;
      (** CPU budget when the request omits one; [None] = unlimited *)
  max_cpu_limit : float option;
      (** requests above this are rejected; [None] = no cap *)
  default_par_domains : int;
      (** intra-problem team size applied to requests that omit
          [par_domains]; [1] (default) = sequential engine. Parallel runs
          reuse the executor's worker domains via
          {!Socy_batch.Pool.Executor.parallel_tasks} — the daemon never
          spawns a second domain team (see docs/OPERATIONS.md). *)
  backlog : int;  (** listen(2) backlog *)
  unlink_existing : bool;
      (** remove a pre-existing socket file before binding (the CLI's
          [--force]); otherwise binding over one fails *)
  slow_ms : float option;
      (** requests slower than this (wall milliseconds) emit a
          [serve.slow] structured log record; [None] (default) disables
          the slow-query log *)
  metrics_file : string option;
      (** when set, a dedicated thread snapshots the Prometheus text
          exposition to this path every [metrics_interval] seconds *)
  metrics_interval : float;  (** snapshot period, seconds; default 10 *)
}

(** [config ~socket_path ()] with server-appropriate defaults: executor
    domains = [max 1 (recommended - 1)], cache 128 entries, max_inflight
    [4 × domains], node limits 40 million (default = cap, i.e. requests
    may only lower it), no CPU budget, backlog 64. The caps are
    authoritative: a [max_node_limit]/[max_cpu_limit] below the
    corresponding default also lowers that default, so a request that
    omits its budget is always admissible.

    Every setting is range-checked here, so a bad one fails before any
    socket exists: [Invalid_argument], naming the setting and its value,
    when [domains], [cache_capacity], [max_inflight],
    [default_node_limit], [max_node_limit] or [default_par_domains] is
    below 1, when [default_cpu_limit], [max_cpu_limit] or
    [metrics_interval] is not a positive finite number, or when [slow_ms]
    is negative or not finite. *)
val config :
  ?domains:int ->
  ?cache_capacity:int ->
  ?max_inflight:int ->
  ?default_node_limit:int ->
  ?max_node_limit:int ->
  ?default_cpu_limit:float ->
  ?max_cpu_limit:float ->
  ?default_par_domains:int ->
  ?backlog:int ->
  ?unlink_existing:bool ->
  ?slow_ms:float ->
  ?metrics_file:string ->
  ?metrics_interval:float ->
  socket_path:string ->
  unit ->
  config

type t

(** [create config] binds and listens on the socket and spawns the worker
    domains. Raises [Failure] with a one-line message when the socket
    path is already in use (and [unlink_existing] is false) or cannot be
    bound. *)
val create : config -> t

(** [run t] is the accept loop; it blocks until {!stop} (or a [shutdown]
    request) initiates draining, then completes the drain — in-flight
    requests answered, executor joined, connection threads joined, socket
    file unlinked — and returns. Call it at most once. *)
val run : t -> unit

(** [stop t] initiates graceful shutdown from any thread (idempotent,
    non-blocking, async-signal-safe enough for a [Sys.Signal_handle]).
    {!run} performs the actual drain and returns when it is complete. *)
val stop : t -> unit

(** The [stats]-endpoint document (uptime, executor occupancy, per-method
    request counts, cache statistics, instrument snapshot) — exposed so
    the CLI can print a final summary after {!run} returns. *)
val stats_json : t -> Json.t
