(** Gate-level combinational circuits (fault trees).

    The paper assumes "a gate-level description of the [fault-tree] function
    is available"; this module is that substrate. Circuits are DAGs of n-ary
    gates over a dense set of input variables. Structurally identical
    subcircuits are shared (hash-consed) by the builder, so node identity is
    meaningful and traversals visit each distinct gate once.

    The fault-tree convention throughout the repository: input [i] is the
    "component [i] failed" indicator and the output is 1 iff the system is
    {e not} functioning. *)

type gate_kind = And | Or | Not | Xor | Nand | Nor | Xnor

type node = private { id : int; desc : desc }

and desc =
  | Input of int  (** input variable index, [0 <= i < num_inputs] *)
  | Const of bool
  | Gate of gate_kind * node array
      (** fan-in order is significant: the ordering heuristics depend on it *)

type t = {
  output : node;
  num_inputs : int;
  name : string;  (** for reports; "" when anonymous *)
}

(** {1 Building circuits} *)

(** A builder owns the hash-consing tables; nodes from different builders
    must not be mixed (checked by construction: all public entry points take
    the builder). *)
type builder

(** [builder ~num_inputs ()] is a fresh builder for circuits over inputs
    [0 .. num_inputs-1]. *)
val builder : num_inputs:int -> unit -> builder

(** [input b i] is the input variable [i]. Raises [Invalid_argument] when
    out of range. *)
val input : builder -> int -> node

(** Boolean constant. *)
val const : builder -> bool -> node

(** [gate b kind args] is the n-ary gate node. [Not] requires exactly one
    argument; other kinds require at least one. No simplification is
    performed beyond hash-consing: the gate-level description is preserved
    as written, as the variable-ordering heuristics are sensitive to it. *)
val gate : builder -> gate_kind -> node list -> node

val and_ : builder -> node list -> node
val or_ : builder -> node list -> node
val not_ : builder -> node -> node
val xor_ : builder -> node list -> node

(** [at_least b k args] is a gate network computing "at least [k] of the
    [args] are 1", synthesized by the standard dynamic program
    th(k; x1..xn) = x1·th(k-1; x2..xn) + th(k; x2..xn) with memoization,
    yielding O(k·n) gates. [k <= 0] gives [const true]; [k > n] gives
    [const false]. *)
val at_least : builder -> int -> node list -> node

(** [at_most b k args] = not (at_least (k+1) args). *)
val at_most : builder -> int -> node list -> node

(** [exactly b k args] = at_least k args ∧ at_most k args. *)
val exactly : builder -> int -> node list -> node

(** [finish b ~name output] packages a circuit rooted at [output]. *)
val finish : builder -> name:string -> node -> t

(** [substitute b circuit ~subst] rebuilds [circuit] inside builder [b],
    replacing every [Input i] by [subst i]. Used to plug the component-failed
    expressions into the fault tree when constructing the function G of the
    paper (Fig. 1). Gate structure is preserved verbatim. *)
val substitute : builder -> t -> subst:(int -> node) -> node

(** {1 Walking circuits} *)

(** [fold ?last_use ?after c step] is the one bottom-up walk of [c]: every
    program that computes something per node (evaluation, substitution,
    heuristic weights and cones, each diagram builder, the serve cache
    key) is a [step] of it.

    It calls [step node value] once per distinct node reachable from the
    output, in {!postorder}: depth-first, fan-in in argument order, each
    node after its fan-ins. [value] reads the memoized result of a node
    already stepped, so a gate's step reads its fan-ins' results. The
    result is that reader after the last step; apply it to [c.output] for
    the circuit's value. Reading a node the walk has not reached returns an
    arbitrary step result.

    The order is a contract: diagram node ids, the ROBDD peak and
    created-node counts, the substituted circuit's ids, the serve cache
    keys and the heuristic ranks all follow it.

    [last_use] reports each node whose result is no longer needed: right
    after the step of the gate that consumes it last, and before [after],
    with the gate's arguments in argument order, counting a repeated
    argument once per occurrence. It is never called for the output.
    [after node] runs once [node]'s step and its reports are done.

    The walk needs no recursion; its memo is a flat array of
    [c.output.id + 1] slots, node ids being dense per builder. *)
val fold :
  ?last_use:(node -> 'a -> unit) ->
  ?after:(node -> unit) ->
  t ->
  (node -> (node -> 'a) -> 'a) ->
  node ->
  'a

(** A decision-diagram engine's Boolean operations, for {!reduce}. An
    engine with reference counts threads ownership: [own] takes a
    reference to a fan-in's result; [and_], [or_] and [xor_] release their
    left operand, the accumulator; [not_] releases its operand. Other
    engines pass their plain operations and [Fun.id]. *)
type 'a ops = {
  and_ : 'a -> 'a -> 'a;
  or_ : 'a -> 'a -> 'a;
  xor_ : 'a -> 'a -> 'a;
  not_ : 'a -> 'a;
  own : 'a -> 'a;
}

(** [reduce ops kind args value] is the n-ary gate rule of every diagram
    builder: a left fold of the binary operation over [args] in argument
    order, starting from [own] of the first; [Nand], [Nor] and [Xnor]
    negate the fold, and [Not] negates [own] of its one argument. [value]
    reads an argument's result, as in {!fold}. {!eval} keeps a Boolean
    table of its own: it is the reference the engines are checked
    against. *)
val reduce : 'a ops -> gate_kind -> node array -> (node -> 'a) -> 'a

(** {1 Observing circuits} *)

(** [eval c assignment] evaluates the circuit; [assignment i] is the value
    of input [i]. *)
val eval : t -> (int -> bool) -> bool

(** Number of distinct gate nodes (inputs and constants excluded), the
    quantity reported in the paper's Table 1. *)
val gate_count : t -> int

(** Number of distinct nodes of every kind. *)
val node_count : t -> int

(** Indices of inputs actually reachable from the output, increasing. *)
val inputs_used : t -> int list

(** [postorder c] is a depth-first, left-most postorder of the distinct
    nodes (every node after its fan-ins): the order of {!fold}. *)
val postorder : t -> node list

(** Graphviz rendering, for debugging and documentation. *)
val to_dot : t -> string

(** Human-readable gate-kind name. *)
val gate_kind_name : gate_kind -> string
