(** ROMDD (reduced ordered multiple-valued decision diagram) package.

    Nodes test a multiple-valued variable and have one outgoing edge per
    domain value; the represented functions here are boolean-valued
    (terminals 0/1), which is all the yield method needs. Reduction rules:
    (a) hash-consing (no two structurally identical nodes), (b) node
    elimination (a node whose children are all equal is replaced by the
    child). The diagrams are therefore canonical for a given variable
    ordering, which the test suite exploits: the ROMDD obtained by
    converting a coded ROBDD must be {e physically} the same node as the one
    built directly with {!apply}.

    Managers never reclaim nodes (ROMDDs are an order of magnitude smaller
    than the coded ROBDDs they come from — Table 4 of the paper); sizes are
    counted over the cone of a root. Node ids are handed out in creation
    order. A node's children are stored once, in int chunks at a per-node
    offset, and an open-addressing unique table over node ids finds them,
    so neither a lookup nor a walk allocates per node. *)

type spec = { name : string; domain : int }
(** A multiple-valued variable: values are [0 .. domain-1]. *)

type t
(** Manager: owns the node store for a fixed ordered list of variables
    (index in the array = level, level 0 tested first). *)

type node = int
(** Node handle; {!zero} and {!one} are the terminals. *)

(** Raised when creating a node would take the manager past its
    [node_limit]; the same exception as
    {!Socy_bdd.Manager.Node_limit_exceeded}. *)
exception Node_limit_exceeded

(** Raised, from node creation, once the manager's [cpu_limit] is spent;
    the same exception as {!Socy_bdd.Manager.Cpu_limit_exceeded}. *)
exception Cpu_limit_exceeded

(** [create ?node_limit ?cpu_limit ?cache_bits specs] — [cache_bits]
    (default 16, range 1–28) caps the direct-mapped APPLY computed cache at
    [2^cache_bits] slots. The cache starts at [2^(min cache_bits 12)] slots
    and doubles on an APPLY miss while the manager holds more nodes than it
    has slots, so a manager built only through {!mk} keeps 4096. It is
    bounded by construction: colliding entries overwrite, so arbitrarily
    many {!apply_and}/{!apply_or}/{!apply_xor} calls never grow it past the
    cap.

    [node_limit] (default unbounded, at least 1) bounds the nodes created,
    terminals included ({!total_nodes}): since nodes are never freed, that
    is also the live count and its peak. A creation that would pass it
    raises {!Node_limit_exceeded}, so the count at the trip is
    [node_limit], or 2 (the terminals) for a smaller limit. [cpu_limit] bounds the CPU seconds from creation. APPLY
    reads the clock every 65,536 steps (cache misses) and raises
    {!Cpu_limit_exceeded} past it: the ROBDD manager reads it every 65,536
    node creations, but an MDD step creates fewer nodes (MS4 λ′=1 makes
    46,038 nodes in 84,235 steps). A raise leaves the manager consistent:
    every node made so far stays valid. *)
val create :
  ?node_limit:int -> ?cpu_limit:float -> ?cache_bits:int -> spec array -> t

val num_mvars : t -> int
val spec : t -> int -> spec

val zero : node
val one : node
val is_terminal : node -> bool

(** [mk t level children] hash-conses a node; [Array.length children] must
    equal the variable's domain. Applies the elimination rule. A new node
    copies [children], so the caller may reuse the array. *)
val mk : t -> int -> node array -> node

(** [literal t level values] is the function "variable [level] ∈ [values]"
    — the paper's filter gates [I_i] and (with a range) [I_{>=i}]. *)
val literal : t -> int -> values:int list -> node

(** The variable tested at a node; [num_mvars t] for terminals. *)
val level : t -> node -> int

(** A fresh copy of a node's children, in value order. Raises on
    terminals. *)
val children : t -> node -> node array

(** {1 Boolean combinators}

    Hash-consed, memoized APPLY. A call combines the children of its
    operands value by value, in value order, and recurses once per
    distinct pair of child operands: a value whose pair came up before
    takes that value's result. Each recursion descends a level, so the
    OCaml stack used is bounded by the number of variables. *)

val apply_and : t -> node -> node -> node
val apply_or : t -> node -> node -> node
val apply_xor : t -> node -> node -> node
val not_ : t -> node -> node

(** {1 Analysis} *)

(** [eval t n assignment] with [assignment level] the value of that
    variable. Raises [Invalid_argument] on a value outside the domain. *)
val eval : t -> node -> (int -> int) -> bool

(** [probability t n ~p] is P(f = 1) when variable [v] independently takes
    value [j] with probability [p v j] — the paper's depth-first, left-most
    evaluation (Section 2, Fig. 2). Probabilities of each variable must sum
    to 1 over its domain for the result to be a probability. The traversal
    is iterative (bottom-up over the cone in level order) and keeps its memo
    on the call frame, so deep diagrams cannot overflow the stack and
    repeated calls cannot grow the manager. *)
val probability : t -> node -> p:(int -> int -> float) -> float

(** [probability_sweep t n ~nk ~p] evaluates [nk] independent probability
    scenarios in one traversal of the cone of [n]: scenario [k < nk] assigns
    variable [v] value [j] with probability [(p v j).(k)], and slot [k] of
    the result is P(f = 1) under scenario [k]. One bottom-up pass computes
    what [nk] separate {!probability} calls would. A node carries a
    length-[nk] value vector, or one value when its level's vectors are
    uniform over the [nk] scenarios and its children all carry one value;
    the result is the same bits either way. This is how the pipeline gets
    every conditional yield Y_k = 1 − P(G = 1 | W = k) plus the truncation
    tail from a single ROMDD traversal (Theorem 1 of the paper). The arrays
    returned by [p] must have length at least [nk]; they are read once per
    (level, value) pair and may be shared. Raises [Invalid_argument] when
    [nk < 1] or a vector is too short. *)
val probability_sweep :
  t -> node -> nk:int -> p:(int -> int -> float array) -> float array

(** [probability_sweep_and_size t n ~nk ~p] is
    [(probability_sweep t n ~nk ~p, size t n)] from the sweep's one walk of
    the cone: its size counts the nodes the sweep values and the terminals
    they reach, so no second walk runs. *)
val probability_sweep_and_size :
  t -> node -> nk:int -> p:(int -> int -> float array) -> float array * int

(** [probability_with_sensitivities t n ~p] additionally returns the exact
    partial derivatives ∂P(f = 1)/∂p(v, j) for every variable [v] and value
    [j], computed in one downward (reach-probability) and one upward
    (node-value) sweep: the partial at (v, j) is
    Σ_{nodes m at level v} reach(m) · value(child_j m). The derivatives
    treat all [p v j] as independent parameters (no sum-to-1 constraint);
    compose with a chain rule for constrained parametrizations. *)
val probability_with_sensitivities :
  t -> node -> p:(int -> int -> float) -> float * float array array

(** [iter_reachable t n f] calls [f] once per distinct node in the cone of
    [n], terminals included, in postorder: children before their parent,
    in child-index order. *)
val iter_reachable : t -> node -> (node -> unit) -> unit

(** Distinct nodes in the cone of [n], terminals included. *)
val size : t -> node -> int

(** Total nodes ever created in the manager (a memory/work measure). *)
val total_nodes : t -> int

(** {1 Engine statistics and observability} *)

type stats = {
  nodes : int;  (** nodes ever created, terminals included *)
  apply_hits : int;  (** APPLY answered from the computed cache *)
  apply_misses : int;  (** APPLY that had to recurse *)
  apply_cache_slots : int;  (** current capacity of the direct-mapped cache *)
  sweeps : int;  (** {!probability_sweep} traversals run *)
}

val stats : t -> stats

(** Publish the manager's plain counters to the {!Socy_obs.Obs} registry
    ([mdd.apply_cache_hits] / [mdd.apply_cache_misses]) as a delta against
    the last published snapshot — calling it repeatedly for the same manager
    never double-counts. No-op while observability is disabled.
    ([mdd.sweep.runs] is incremented at event time by
    {!probability_sweep} itself.) *)
val publish_obs : t -> unit

(** Increasing list of levels on which [n] depends. *)
val support : t -> node -> int list

val to_dot : t -> node -> string
