(** ROBDD (reduced ordered binary decision diagram) engine with
    complement edges.

    A from-scratch replacement for the CMU BDD library the paper uses:
    hash-consed nodes, attributed (complement) edges, ITE with a computed
    cache, specialized AND/OR entry points, reference counting with
    dead-node resurrection, explicit garbage collection, and the live-node
    statistics the paper reports (current size, {e peak} size).

    {2 Handles and complement edges}

    A node handle is an [int] packing a physical slot index and a
    complement bit: [handle = slot lsl 1 lor cbit]. There is a single
    terminal — the constant-TRUE sink at slot 0 — so [one = 0] and
    [zero = 1] (FALSE is the complemented sink). Negation is [O(1)] and
    allocation-free: [not_ m f] is [f] with the complement bit flipped
    (plus a reference-count bump).

    Canonicity: the else-edge {e stored} in a node is always regular
    (complement bit 0). [mk] enforces this by rewriting
    [(lv ? hi : ¬x)] into [¬(lv ? ¬hi : x)], so one physical node serves
    both polarities of a function and equality of functions is equality
    of handles. The then-edge, and any handle held by a caller, may be
    complemented.

    The structure accessors {!low} / {!high} apply the handle's own
    complement parity before returning, so a consumer walking the diagram
    through them always sees the true cofactors of the {e function} the
    handle denotes — complemented edges are transparent unless a consumer
    asks with {!is_complemented}.

    {2 Variables and ordering}

    A manager is created over a fixed number of variables. A {e level} is
    a depth in the diagram (level 0 is tested first on every path); which
    variable is tested at a level is the manager's current order. The two
    start out identical — variable [v] at level [v] — and only dynamic
    reordering ({!sift}, {!set_order}, {!swap_levels}) changes the
    mapping, maintained in {!var_at_level} / {!level_of_var}. Callers
    that want a non-trivial {e static} ordering (all of them, in this
    repository) permute their problem variables into manager variables
    before building — see {!Socy_order}.

    All variable-facing entry points ({!var}, {!eval}, {!probability},
    {!support}, …) speak {e variables} and translate
    through the permutation internally, so client code is oblivious to
    reordering.

    {2 Dynamic reordering}

    {!sift} runs Rudell's sifting in place: each physical slot keeps
    denoting the same function with the same polarity through every
    adjacent-level swap, so {e external handles stay valid across
    reordering} — a build can interleave operations and sifting freely.
    Sifting is group-aware: after {!set_groups}, variables of one group
    move as a contiguous block. A sift never ends with more live nodes
    than it started with (each block returns to the best position seen),
    converges-and-stops, and aborts gracefully — never raising — when the
    manager's node budget is hit mid-move.

    {2 Reference discipline}

    Every function returning a node returns an {e owned} reference: the
    caller must eventually pass it to {!deref} (or transfer it). References
    count physical slots — [f] and [not_ f] share one count. Nodes whose
    reference count drops to zero become dead; dead nodes are resurrected
    transparently when the unique table or the computed cache hands them out
    again, and are reclaimed only by {!collect}. The [alive] statistic
    therefore counts exactly the nodes reachable from owned references, and
    [peak_alive] is the paper's "peak number of ROBDD nodes". *)

type t
(** A BDD manager. *)

type node = int
(** Node handle, only meaningful together with its manager. The constant
    nodes are {!zero} and {!one}. *)

exception Node_limit_exceeded
(** Raised when a node creation would push the live-node count beyond the
    manager's [node_limit]; reproduces the paper's "—" (method failed due to
    excessive memory requirements) entries. *)

exception Cpu_limit_exceeded
(** Raised (from node creation, so at a safe point) once the manager's
    [cpu_limit] budget is spent. Checked every 64k creations. *)

(** [create ~num_vars ()] is a fresh manager. [node_limit] bounds live
    nodes (default: unbounded); [cpu_limit] bounds CPU seconds from
    creation (default: unbounded). [cache_bits] (1–28, default 18) caps
    the computed cache at [2^cache_bits] lines. The cache starts at
    [2^(min cache_bits 12)] lines and doubles whenever an ITE or AND/OR
    cache miss finds more nodes in the store (live plus dead) than it has
    lines, so it tracks the diagram's size: a manager that only calls
    {!mk} / {!var} keeps 4096 lines. The size never changes a result, only
    hit and miss counts. Raises [Invalid_argument] when [cache_bits] is
    outside 1–28. *)
val create :
  ?node_limit:int -> ?cpu_limit:float -> ?cache_bits:int -> num_vars:int -> unit -> t

val num_vars : t -> int

val zero : node
(** The constant-false function: the complemented sink (handle [1]). *)

val one : node
(** The constant-true terminal (handle [0], the single physical sink). *)

(** [var m v] is the function of variable [v] (owned). *)
val var : t -> int -> node

(** [nvar m v] is the negation of variable [v] (owned). [var] and [nvar]
    share one physical node. *)
val nvar : t -> int -> node

(** [mk m lv lo hi] — the raw hash-consing entry point: the canonical
    (owned) handle for "level [lv] ? [hi] : [lo]". Note the first
    argument is a LEVEL, not a variable. Exposed for tests that build a
    diagram node by node; ordinary clients should build through {!var}
    and the operations. *)
val mk : t -> int -> node -> node -> node

(** {1 Reference counting} *)

(** [ref_ m n] takes an additional owned reference on [n]. *)
val ref_ : t -> node -> unit

(** [deref m n] releases one owned reference; recursively kills the node's
    cone when the count reaches zero. *)
val deref : t -> node -> unit

(** {1 Operations}

    All operations return owned references. Operand references are {e not}
    consumed. *)

val ite : t -> node -> node -> node -> node

(** [not_ m f] is [¬f] — [O(1)], allocation-free (flips the handle's
    complement bit after taking a reference). *)
val not_ : t -> node -> node

(** [and_ m f g] / [or_ m f g]: specialized conjunction/disjunction entry
    points. Terminal, idempotence, absorption ([f ∧ ¬f = 0]) and
    complement cases resolve without touching the computed cache (counted
    in [and_or_fast_hits]); general calls use a dedicated binary cache
    entry, and OR shares AND's cache lines through De Morgan
    ([f ∨ g = ¬(¬f ∧ ¬g)], complements free). *)
val and_ : t -> node -> node -> node

val or_ : t -> node -> node -> node
val xor_ : t -> node -> node -> node

(** {1 Structure access} *)

(** [is_terminal n] is true for {!zero} and {!one}. *)
val is_terminal : node -> bool

(** [is_complemented n] is true when the handle carries the complement
    bit — i.e. [n] denotes the negation of its stored physical node.
    {!zero} is complemented; {!one} is not. *)
val is_complemented : node -> bool

(** [regular n] is [n] with the complement bit cleared — the physical
    node's identity. [regular f = regular (not_ m f)]. *)
val regular : node -> node

(** [handle_bound m] is an exclusive upper bound on every handle value the
    manager has issued so far (complemented or not) — suitable for sizing
    flat arrays or bitsets indexed by handle. *)
val handle_bound : t -> int

(** [level m n] is the {e level} (depth) of [n]; [num_vars m] for
    terminals. The variable tested there is [var_at_level m (level m n)]
    (the two coincide until a reordering runs). *)
val level : t -> node -> int

(** [var_of m n] is the variable tested at [n]; raises [Invalid_argument]
    on terminals. *)
val var_of : t -> node -> int

(** [low m n] / [high m n] are the else/then cofactors {e of the function
    [n] denotes}: the handle's complement parity is applied to the stored
    child, so traversals through these accessors are semantically correct
    whether or not [n] is complemented. Raises [Invalid_argument] on
    terminals. The returned handles are {e borrowed} (not owned): they are
    kept alive by [n]. *)
val low : t -> node -> node

val high : t -> node -> node

(** {1 Analysis} *)

(** [size m n] is the number of distinct {e physical} nodes reachable from
    [n], sink included. With complement edges there is a single terminal,
    so sizes are one smaller than the two-terminal convention for the same
    function, and [size m f = size m (not_ m f)]. *)
val size : t -> node -> int

(** [size_multi m roots] is the number of distinct physical nodes reachable
    from any of [roots] — shared nodes (and the sink) counted once. *)
val size_multi : t -> node list -> int

(** [eval m n assignment] evaluates the function; [assignment v] is the
    value of variable [v]. *)
val eval : t -> node -> (int -> bool) -> bool

(** [probability m n ~p] is P(f = 1) when variable [v] is independently 1
    with probability [p v]. Complement-consistent by construction: node
    values are computed once per physical slot and read through a
    complemented edge as [1 - v], so [P(f) + P(¬f) = 1] holds {e exactly}
    in floating point. *)
val probability : t -> node -> p:(int -> float) -> float

(** [support m n] is the increasing list of variables on which [n] depends. *)
val support : t -> node -> int list

(** [iter_reachable m n f] calls [f] once per distinct reachable {e
    physical} node (as its regular handle), sink included, in postorder:
    children before parents, the low child's cone before the high
    child's. The walk marks slots in a byte array of one byte per slot
    handed out, so it costs O(nodes in the store) however small the
    cone. *)
val iter_reachable : t -> node -> (node -> unit) -> unit

(** {1 Dynamic reordering} *)

(** [var_at_level m lv] is the variable tested at level [lv] under the
    current order. *)
val var_at_level : t -> int -> int

(** [level_of_var m v] is the level at which variable [v] is tested —
    the inverse of {!var_at_level}. *)
val level_of_var : t -> int -> int

(** [current_order m] is a fresh copy of the level → variable map. *)
val current_order : t -> int array

(** [set_groups m g] declares [g.(v)] the group id of variable [v]
    (length must be [num_vars m], or [[||]] to clear). {!sift} keeps each
    group's variables contiguous and moves the whole group as a unit; the
    variables of a group must already be contiguous in the current order
    when {!sift} runs. Group ids are arbitrary ints, compared for
    equality only. *)
val set_groups : t -> int array -> unit

(** [swap_levels m i] swaps levels [i] and [i+1] in place (a single
    Rudell adjacent-level swap, ignoring groups) — primarily a test hook
    for the invariant suite; {!sift} is the production driver. External
    handles remain valid. *)
val swap_levels : t -> int -> unit

(** [sift m ()] runs group-aware Rudell sifting to shrink the live-node
    count, in place: external handles remain valid and keep denoting the
    same functions. Each block (group, or single variable without groups)
    is moved through all positions — largest blocks first — and parked at
    the best position seen; passes repeat until no pass improves the size
    (converge-and-stop) or [max_passes] is reached. A direction of travel
    is cut short once the table grows past [max_growth] × its size at the
    block's start; blowing through the manager's [node_limit] aborts the
    whole run {e gracefully} (the block walks back to its best seen
    position; no exception, counted in {!reorder_stats}). Dead nodes are
    collected and the computed cache is flushed as part of the run.
    Deterministic: decisions depend only on table sizes, never on time or
    randomness. *)
val sift : ?max_growth:float -> ?max_passes:int -> t -> unit

(** [set_order m target] restores an explicit order by adjacent swaps:
    [target.(v)] is the level variable [v] must end at (must be a
    permutation of [0 .. num_vars-1]). Used to return to the {e
    requested} static order after a build sifted freely, so downstream
    consumers see exactly the order they asked for. When groups are
    installed and both the current and the target order keep them
    contiguous, the walk is group-aware — bits sort inside their blocks,
    then whole blocks move — so intermediate orders never interleave two
    groups; otherwise it falls back to a variable-level selection sort.
    Raises {!Node_limit_exceeded} if a transient order en route exceeds
    the node budget (checked at swap boundaries; the manager remains
    consistent). *)
val set_order : t -> int array -> unit

type reorder_stats = {
  runs : int;  (** completed {!sift} invocations *)
  swaps : int;  (** adjacent-level swaps performed (all reordering) *)
  aborted : int;  (** sift runs cut short by the node budget *)
}

val reorder_stats : t -> reorder_stats

(** Exhaustive structural validator (canonicity: regular stored
    else-edges, strictly deeper children, no duplicate or redundant
    nodes; unique-table and refcount consistency; the variable/level
    permutation a proper inverse pair). Raises [Failure] with a
    description on the first violation. O(table size) — meant for tests,
    called after every qcheck-generated sift schedule. *)
val check_invariants : t -> unit

(** {1 Memory management and statistics} *)

(** [collect m] reclaims dead nodes and flushes the computed cache. Safe
    only between operations (never called implicitly). *)
val collect : t -> unit

(** Live (referenced) nonterminal nodes right now. *)
val alive : t -> int

(** High-water mark of {!alive} since creation — the paper's "ROBDD peak". *)
val peak_alive : t -> int

(** Dead-but-resurrectable nodes currently in the table. *)
val dead : t -> int

(** Total nodes ever created (a work measure). *)
val created_total : t -> int

(** Number of {!collect} runs. *)
val gc_count : t -> int

(** Reset the peak statistic to the current live count. *)
val reset_peak : t -> unit

(** A consistent copy of every engine statistic. The table/cache hit
    counters pin down {e why} time goes where the paper's Table 4 says it
    does: [unique_hits] counts [mk] calls answered from the unique table,
    [cache_hits] / [cache_misses] the computed-cache behavior (each
    nontrivial ITE or AND/OR call is exactly one of the two),
    [and_or_fast_hits] the AND/OR calls resolved by terminal/absorption
    rules before reaching the cache, [reclaimed] the nodes freed by GC
    over the manager's lifetime. *)
type stats = {
  alive : int;  (** current live nonterminal nodes *)
  peak : int;  (** high-water mark of [alive] — the paper's "ROBDD peak" *)
  dead : int;  (** dead-but-resurrectable nodes in the table *)
  created : int;  (** total node creations (work measure) *)
  gc_runs : int;  (** number of {!collect} runs *)
  reclaimed : int;  (** nodes reclaimed by all {!collect} runs *)
  unique_hits : int;  (** [mk] calls answered by an existing node *)
  cache_hits : int;  (** computed-cache hits (ITE + AND/OR) *)
  cache_misses : int;  (** computed-cache misses (ITE + AND/OR) *)
  and_or_fast_hits : int;
      (** AND/OR calls resolved by terminal/absorption fast paths *)
}

val stats : t -> stats

(** [publish_obs m] pushes the manager's statistics into the {!Socy_obs}
    registry (counters [bdd.created], [bdd.unique_hits], [bdd.ite_cache_*],
    [bdd.and_or_fast_hits], [bdd.gc_*], [bdd.reorder.*]; gauges
    [bdd.live_nodes] / [bdd.peak_nodes]). Counters are cumulative across managers; each call
    publishes only the {e delta} since the previous publish for this
    manager, so it is safe to call at any checkpoint and as often as wanted
    — repeated calls never double-count. A no-op while observability is
    disabled (and such calls do not advance the published snapshot).

    The gauges are also sampled automatically during operation: every 64k
    node creations (piggybacked on the CPU-budget clock check, so the hot
    path gains nothing) and after every GC. *)
val publish_obs : t -> unit

(** {1 Export} *)

(** Graphviz rendering of the cone of [n] (for small diagrams/tests).
    Complemented edges carry an [odot] arrowhead; the root's own polarity
    is drawn as an entry edge. *)
val to_dot : t -> node -> string
