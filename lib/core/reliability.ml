module C = Socy_logic.Circuit
module Mdd = Socy_mdd.Mdd
module Model = Socy_defects.Model

type result = {
  yield : float;
  survival : float;
  reliability : float;
  m : int;
  romdd_nodes : int;
}

let evaluate ?(epsilon = 1e-3) fault_tree lethal ~p_field =
  let c = fault_tree.C.num_inputs in
  if Array.length p_field <> c then
    invalid_arg "Reliability.evaluate: p_field arity mismatch";
  Array.iter
    (fun p ->
      if p < 0.0 || p > 1.0 then
        invalid_arg "Reliability.evaluate: p_field entries must be in [0, 1]")
    p_field;
  let m = Model.truncation lethal ~epsilon in
  (* Variable order: w, v_1 … v_M, then one binary field variable per
     component (static; the heavy part is the defect prefix). *)
  let specs =
    Array.init
      (1 + m + c)
      (fun pos ->
        if pos = 0 then { Mdd.name = "w"; domain = m + 2 }
        else if pos <= m then { Mdd.name = Printf.sprintf "v%d" pos; domain = c }
        else { Mdd.name = Printf.sprintf "f%d" (pos - 1 - m); domain = 2 })
  in
  let mdd = Mdd.create specs in
  let w_overflow, defect =
    Direct.defect_literals mdd ~m ~components:c ~w_pos:0 ~v_pos:Fun.id
  in
  let field = Array.init c (fun i -> Mdd.literal mdd (1 + m + i) ~values:[ 1 ]) in
  let failed_at_t = Array.init c (fun i -> Mdd.apply_or mdd defect.(i) field.(i)) in
  let g0 = Mdd.apply_or mdd w_overflow (Direct.apply_fault_tree mdd fault_tree defect) in
  let gt =
    Mdd.apply_or mdd w_overflow (Direct.apply_fault_tree mdd fault_tree failed_at_t)
  in
  (* dead at 0 or dead at t (for coherent trees g0 implies gt, but the
     union is what "functioning at 0 and t" needs in general) *)
  let dead_either = Mdd.apply_or mdd g0 gt in
  let w_pmf = Model.w_pmf lethal ~m in
  let p pos value =
    if pos = 0 then w_pmf.(value)
    else if pos <= m then lethal.Model.component.(value)
    else if value = 1 then p_field.(pos - 1 - m)
    else 1.0 -. p_field.(pos - 1 - m)
  in
  let yield = 1.0 -. Mdd.probability mdd g0 ~p in
  let survival = 1.0 -. Mdd.probability mdd dead_either ~p in
  let reliability =
    if yield <= 0.0 then 0.0 else min 1.0 (max 0.0 (survival /. yield))
  in
  { yield; survival; reliability; m; romdd_nodes = Mdd.total_nodes mdd }
