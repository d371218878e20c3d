module C = Socy_logic.Circuit
module Bitset = Socy_util.Bitset

type kind = Topology | Weight | H4

let name = function Topology -> "topology" | Weight -> "weight" | H4 -> "h4"

(* Shared driver: depth-first, left-most traversal recording inputs in
   first-visit order; [reorder] permutes a gate's fan-in at first visit. *)
let dfs_rank (circuit : C.t) ~reorder =
  let rank = Array.make circuit.C.num_inputs (-1) in
  let next = ref 0 in
  let seen = Hashtbl.create 256 in
  let rec visit (n : C.node) =
    if not (Hashtbl.mem seen n.C.id) then begin
      Hashtbl.add seen n.C.id ();
      match n.C.desc with
      | C.Input i ->
          rank.(i) <- !next;
          incr next
      | C.Const _ -> ()
      | C.Gate (_, args) -> List.iter visit (reorder args)
    end
  in
  visit circuit.C.output;
  (* Unreachable inputs rank last, in index order. *)
  Array.iteri
    (fun i r ->
      if r < 0 then begin
        rank.(i) <- !next;
        incr next
      end)
    rank;
  rank

let topology circuit = dfs_rank circuit ~reorder:Array.to_list

let node_weights (circuit : C.t) =
  (* Float weights: fan-in sums can grow exponentially along deep DAGs. *)
  C.fold circuit (fun n weight_of ->
      match n.C.desc with
      | C.Input _ | C.Const _ -> 1.0
      | C.Gate (_, args) -> Array.fold_left (fun acc a -> acc +. weight_of a) 0.0 args)

let weight circuit =
  let weight_of = node_weights circuit in
  let reorder args =
    (* Stable sort by increasing weight preserves original order on ties. *)
    List.stable_sort
      (fun a b -> compare (weight_of a) (weight_of b))
      (Array.to_list args)
  in
  dfs_rank circuit ~reorder

(* Dependency cone (set of inputs) of every node, as bitsets. *)
let input_cones (circuit : C.t) =
  C.fold circuit (fun n cone_of ->
      let s = Bitset.create circuit.C.num_inputs in
      (match n.C.desc with
      | C.Input i -> Bitset.add s i
      | C.Const _ -> ()
      | C.Gate (_, args) -> Array.iter (fun a -> Bitset.union_into ~into:s (cone_of a)) args);
      s)

let h4 (circuit : C.t) =
  let cone_of = input_cones circuit in
  let rank = Array.make circuit.C.num_inputs (-1) in
  let next = ref 0 in
  let visited_inputs = Bitset.create circuit.C.num_inputs in
  let seen = Hashtbl.create 256 in
  let key (n : C.node) =
    let cone = cone_of n in
    let unvisited = Bitset.diff_cardinal cone visited_inputs in
    let visited_rank_sum =
      Bitset.fold
        (fun i acc -> if Bitset.mem visited_inputs i then acc + rank.(i) else acc)
        cone 0
    in
    (unvisited, visited_rank_sum)
  in
  let rec visit (n : C.node) =
    if not (Hashtbl.mem seen n.C.id) then begin
      Hashtbl.add seen n.C.id ();
      match n.C.desc with
      | C.Input i ->
          rank.(i) <- !next;
          Bitset.add visited_inputs i;
          incr next
      | C.Const _ -> ()
      | C.Gate (_, args) ->
          (* Keys computed once, at first visit of this gate; stable sort
             keeps the original fan-in order on ties. *)
          let keyed = List.map (fun a -> (key a, a)) (Array.to_list args) in
          let sorted =
            List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2) keyed
          in
          List.iter (fun (_, a) -> visit a) sorted
    end
  in
  visit circuit.C.output;
  Array.iteri
    (fun i r ->
      if r < 0 then begin
        rank.(i) <- !next;
        incr next
      end)
    rank;
  rank

let rank = function Topology -> topology | Weight -> weight | H4 -> h4
