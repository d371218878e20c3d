(** Direct ROMDD construction of G(w, v_1 … v_M) with multiple-valued APPLY
    operations — the "algorithms and packages for ROMDD manipulation" route
    ([23, 29]) that the paper argues {e against} on efficiency grounds.

    Two uses here:
    - an independent implementation path: ROMDDs are canonical, so the
      directly built diagram must be the {e same node} as the one obtained
      by converting the coded ROBDD (when built in the same manager with
      the same ordering) — a strong end-to-end correctness check;
    - the ablation benchmark comparing its cost against the coded-ROBDD
      route (DESIGN.md §7). *)

(** [defect_literals mdd ~m ~components ~w_pos ~v_pos] is
    [(I_{M+1}(w), x)] where [x.(i) = ∨_{l=1..M} I_{≥l}(w)·I_i(v_l)] is
    "component [i] is hit by a lethal defect", for [i < components], with
    [w] at MDD position [w_pos] and [v_l] at [v_pos l]. *)
val defect_literals :
  Socy_mdd.Mdd.t ->
  m:int ->
  components:int ->
  w_pos:int ->
  v_pos:(int -> int) ->
  Socy_mdd.Mdd.node * Socy_mdd.Mdd.node array

(** [apply_fault_tree mdd fault_tree failed] evaluates the fault tree
    bottom-up with multiple-valued APPLY, input [i] being [failed.(i)]. *)
val apply_fault_tree :
  Socy_mdd.Mdd.t -> Socy_logic.Circuit.t -> Socy_mdd.Mdd.node array -> Socy_mdd.Mdd.node

(** [build_into artifacts] rebuilds G by MDD APPLY inside the artifact's
    own manager and ordering, returning the root (equal to
    [artifacts.mdd_root] iff the two routes agree). *)
val build_into : Pipeline.Artifacts.t -> Socy_mdd.Mdd.node

(** [evaluate ?epsilon fault_tree lethal ~mv ~bits] runs the whole method
    on the direct route only (no BDD), returning (yield_lower, M,
    romdd_size). Its APPLY cache has the pipeline's default cap,
    [2^Pipeline.default_config.cache_bits] lines. Meant for small
    instances and benchmarks. *)
val evaluate :
  ?epsilon:float ->
  Socy_logic.Circuit.t ->
  Socy_defects.Model.lethal ->
  mv:Socy_order.Scheme.mv_order ->
  bits:Socy_order.Scheme.bit_order ->
  float * int * int
