(** Orderings of the multiple-valued variables and of the binary variables
    encoding them (Section 2 of the paper).

    A scheme combines an ordering for the multiple-valued variables
    (w, v_1, …, v_M) with an ordering for the bits inside each group. The
    resulting binary ordering keeps each group's bits contiguous — the
    precondition of the coded-ROBDD → ROMDD conversion.

    Multiple-valued orderings (paper names):
    - [wv]  : w, v_1, …, v_M
    - [wvr] : w, v_M, …, v_1
    - [vw]  : v_1, …, v_M, w
    - [vrw] : v_M, …, v_1, w
    - [t]/[w]/[h] : groups sorted by increasing {e average rank} of their
      bits under the topology / weight / H4 heuristic applied to the
      gate-level binary description of G.

    Bit orderings inside a group:
    - [ml] : most to least significant
    - [lm] : least to most significant
    - [t]/[w]/[h] : the group's bits sorted by increasing heuristic rank
      (the paper pairs each heuristic bit order with the same-named
      multiple-valued ordering; [make] enforces that pairing). *)

type mv_order = Wv | Wvr | Vw | Vrw | Heur of Heuristics.kind

type bit_order = Ml | Lm | Heur_bits of Heuristics.kind

type t = {
  mv_name : string;
  bit_name : string;
  group_position : int array;  (** group id → position in the mv ordering *)
  groups_in_order : int array;  (** position → group id *)
  level_of_input : int array;  (** circuit input id → BDD level *)
  input_of_level : int array;  (** BDD level → circuit input id *)
}

val mv_order_name : mv_order -> string
val bit_order_name : bit_order -> string

(** Inverses of the [_name] functions over the paper's short names
    ([wv], [wvr], [vw], [vrw], [t], [w], [h] / [ml], [lm], [t], [w], [h]);
    [None] on anything else. The CLI, wire protocol and ordering registry
    all share these as the canonical spelling. *)
val mv_order_of_name : string -> mv_order option

val bit_order_of_name : string -> bit_order option

(** All (mv, bit) combinations evaluated in the paper's Table 2 (with bit
    order ml) and Table 3 (mv order w with ml/lm/w bits). *)
val table2_mv_orders : mv_order list

val table3_bit_orders : bit_order list

(** [check_pairing ~mv ~bits] is [Error msg] when a heuristic bit order
    is paired with a different multiple-valued ordering: the paper only
    allows matching pairs. This is the rule {!make} applies. *)
val check_pairing : mv:mv_order -> bits:bit_order -> (unit, string) result

(** [make problem ~mv ~bits] computes the concrete ordering. Raises
    [Invalid_argument] with {!check_pairing}'s message on a pair it
    rejects. *)
val make : Socy_encode.Problem.t -> mv:mv_order -> bits:bit_order -> t
