(** Direct ROMDD construction of G(w, v_1 … v_M) with multiple-valued APPLY
    operations — the "algorithms and packages for ROMDD manipulation" route
    ([23, 29]) that the paper argues {e against} on efficiency grounds, and
    that measurement on this engine favours (EXPERIMENTS.md, "Section 2
    revisited").

    The one APPLY builder of the program:
    - the pipeline's direct route ({!Pipeline.route}) builds its ROMDD
      here, in a budgeted manager of its own;
    - ROMDDs are canonical, so {!build} into the manager and ordering of a
      coded-route build must return the {e same node} as the conversion
      of the coded ROBDD — a strong end-to-end correctness check;
    - {!Reliability} composes {!defect_literals} and {!apply_fault_tree}
      for its two-epoch diagram. *)

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

(** [build mdd problem scheme] is G = I_{M+1}(w) ∨ F(x_1 … x_C), built in
    [mdd] by APPLY alone, where [mdd]'s variables are [problem]'s groups in
    [scheme]'s multiple-valued order ({!Pipeline.mdd_specs}). Raises what
    [mdd]'s budgets raise ({!Socy_mdd.Mdd.Node_limit_exceeded},
    {!Socy_mdd.Mdd.Cpu_limit_exceeded}). *)
val build :
  Socy_mdd.Mdd.t -> Socy_encode.Problem.t -> Socy_order.Scheme.t -> Socy_mdd.Mdd.node
