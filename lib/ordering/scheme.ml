module P = Socy_encode.Problem

type mv_order = Wv | Wvr | Vw | Vrw | Heur of Heuristics.kind

type bit_order = Ml | Lm | Heur_bits of Heuristics.kind

type t = {
  mv_name : string;
  bit_name : string;
  group_position : int array;
  groups_in_order : int array;
  level_of_input : int array;
  input_of_level : int array;
}

let mv_order_name = function
  | Wv -> "wv"
  | Wvr -> "wvr"
  | Vw -> "vw"
  | Vrw -> "vrw"
  | Heur Heuristics.Topology -> "t"
  | Heur Heuristics.Weight -> "w"
  | Heur Heuristics.H4 -> "h"

let bit_order_name = function
  | Ml -> "ml"
  | Lm -> "lm"
  | Heur_bits Heuristics.Topology -> "t"
  | Heur_bits Heuristics.Weight -> "w"
  | Heur_bits Heuristics.H4 -> "h"

let mv_order_of_name = function
  | "wv" -> Some Wv
  | "wvr" -> Some Wvr
  | "vw" -> Some Vw
  | "vrw" -> Some Vrw
  | "t" -> Some (Heur Heuristics.Topology)
  | "w" -> Some (Heur Heuristics.Weight)
  | "h" -> Some (Heur Heuristics.H4)
  | _ -> None

let bit_order_of_name = function
  | "ml" -> Some Ml
  | "lm" -> Some Lm
  | "t" -> Some (Heur_bits Heuristics.Topology)
  | "w" -> Some (Heur_bits Heuristics.Weight)
  | "h" -> Some (Heur_bits Heuristics.H4)
  | _ -> None

let table2_mv_orders =
  [
    Wv;
    Wvr;
    Vw;
    Vrw;
    Heur Heuristics.Topology;
    Heur Heuristics.Weight;
    Heur Heuristics.H4;
  ]

let table3_bit_orders = [ Ml; Lm; Heur_bits Heuristics.Weight ]

(* Group sequence (position -> group id) for each mv ordering; group 0 is
   w, groups 1..M are v_1..v_M. *)
let group_sequence problem ranks = function
  | Wv -> Array.init (P.num_groups problem) (fun i -> i)
  | Wvr ->
      Array.init (P.num_groups problem) (fun i ->
          if i = 0 then 0 else P.num_groups problem - i)
  | Vw ->
      Array.init (P.num_groups problem) (fun i ->
          if i = P.num_groups problem - 1 then 0 else i + 1)
  | Vrw ->
      Array.init (P.num_groups problem) (fun i ->
          if i = P.num_groups problem - 1 then 0 else P.num_groups problem - 1 - i)
  | Heur _ ->
      let rank =
        match ranks with
        | Some r -> r
        | None -> invalid_arg "Scheme.group_sequence: missing heuristic ranks"
      in
      (* Sort groups by increasing average rank of their encoding bits;
         stable on ties (group id order). *)
      let avg g =
        let nbits = P.bits_of_group problem g in
        let sum = ref 0 in
        for bit = 0 to nbits - 1 do
          sum := !sum + rank.(P.input_id problem ~group:g ~bit)
        done;
        float_of_int !sum /. float_of_int nbits
      in
      let groups = List.init (P.num_groups problem) (fun g -> (avg g, g)) in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) groups in
      Array.of_list (List.map snd sorted)

(* Bit sequence inside a group (positions within group -> bit index,
   bit 0 = most significant). *)
let bit_sequence problem ranks group = function
  | Ml -> Array.init (P.bits_of_group problem group) (fun b -> b)
  | Lm ->
      let n = P.bits_of_group problem group in
      Array.init n (fun b -> n - 1 - b)
  | Heur_bits _ ->
      let rank =
        match ranks with
        | Some r -> r
        | None -> invalid_arg "Scheme.bit_sequence: missing heuristic ranks"
      in
      let n = P.bits_of_group problem group in
      let bits =
        List.init n (fun b -> (rank.(P.input_id problem ~group ~bit:b), b))
      in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) bits in
      Array.of_list (List.map snd sorted)

let check_pairing ~mv ~bits =
  match (mv, bits) with
  | _, (Ml | Lm) -> Ok ()
  | Heur k1, Heur_bits k2 when k1 = k2 -> Ok ()
  | _, Heur_bits _ ->
      Error
        "Scheme.make: a heuristic bit order must be paired with the \
         same-named multiple-valued ordering"

let make problem ~mv ~bits =
  Result.iter_error invalid_arg (check_pairing ~mv ~bits);
  let ranks =
    match (mv, bits) with
    | Heur k, _ | _, Heur_bits k -> Some (Heuristics.rank k problem.P.circuit)
    | _ -> None
  in
  let groups_in_order = group_sequence problem ranks mv in
  let num_groups = P.num_groups problem in
  let group_position = Array.make num_groups (-1) in
  Array.iteri (fun pos g -> group_position.(g) <- pos) groups_in_order;
  let nvars = P.num_binary_vars problem in
  let level_of_input = Array.make nvars (-1) in
  let input_of_level = Array.make nvars (-1) in
  let level = ref 0 in
  Array.iter
    (fun g ->
      let seq = bit_sequence problem ranks g bits in
      Array.iter
        (fun bit ->
          let input = P.input_id problem ~group:g ~bit in
          level_of_input.(input) <- !level;
          input_of_level.(!level) <- input;
          incr level)
        seq)
    groups_in_order;
  {
    mv_name = mv_order_name mv;
    bit_name = bit_order_name bits;
    group_position;
    groups_in_order;
    level_of_input;
    input_of_level;
  }
