module C = Socy_logic.Circuit
module Mdd = Socy_mdd.Mdd
module Problem = Socy_encode.Problem
module Scheme = Socy_order.Scheme

let defect_literals mdd ~m ~components ~w_pos ~v_pos =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let w_overflow = Mdd.literal mdd w_pos ~values:[ m + 1 ] in
  let w_at_least = Array.make (m + 1) Mdd.zero in
  for l = 1 to m do
    w_at_least.(l) <- Mdd.literal mdd w_pos ~values:(range l (m + 1))
  done;
  let component_failed i =
    let rec fold acc l =
      if l > m then acc
      else
        let hit =
          Mdd.apply_and mdd w_at_least.(l)
            (Mdd.literal mdd (v_pos l) ~values:[ i ])
        in
        fold (Mdd.apply_or mdd acc hit) (l + 1)
    in
    fold Mdd.zero 1
  in
  (w_overflow, Array.init components component_failed)

let apply_fault_tree mdd fault_tree failed =
  let ops =
    {
      C.and_ = Mdd.apply_and mdd;
      or_ = Mdd.apply_or mdd;
      xor_ = Mdd.apply_xor mdd;
      not_ = Mdd.not_ mdd;
      own = Fun.id;
    }
  in
  C.fold fault_tree
    (fun n value ->
      match n.C.desc with
      | C.Input i -> failed.(i)
      | C.Const false -> Mdd.zero
      | C.Const true -> Mdd.one
      | C.Gate (kind, args) -> C.reduce ops kind args value)
    fault_tree.C.output

(* Build G = I_{M+1}(w) ∨ F(x_1 … x_C) with x_i = ∨_l I_{>=l}(w)·I_i(v_l),
   entirely with multiple-valued APPLY. *)
let build mdd problem (scheme : Scheme.t) =
  let pos g = scheme.Scheme.group_position.(g) in
  let w_overflow, failed =
    defect_literals mdd ~m:problem.Problem.m
      ~components:problem.Problem.num_components ~w_pos:(pos 0) ~v_pos:pos
  in
  Mdd.apply_or mdd w_overflow
    (apply_fault_tree mdd problem.Problem.fault_tree failed)
