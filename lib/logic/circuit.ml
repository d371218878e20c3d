type gate_kind = And | Or | Not | Xor | Nand | Nor | Xnor

type node = { id : int; desc : desc }

and desc =
  | Input of int
  | Const of bool
  | Gate of gate_kind * node array

type t = { output : node; num_inputs : int; name : string }

(* Hash-consing key: gates compare by kind and argument ids. *)
module Key = struct
  type t = K_input of int | K_const of bool | K_gate of gate_kind * int array

  let equal a b =
    match (a, b) with
    | K_input i, K_input j -> i = j
    | K_const x, K_const y -> x = y
    | K_gate (k1, a1), K_gate (k2, a2) ->
        k1 = k2
        && Array.length a1 = Array.length a2
        &&
        let rec loop i =
          i >= Array.length a1 || (a1.(i) = a2.(i) && loop (i + 1))
        in
        loop 0
    | (K_input _ | K_const _ | K_gate _), _ -> false

  let hash = function
    | K_input i -> (i * 0x9E3779B1) lxor 0x55
    | K_const b -> if b then 0x3333 else 0x7777
    | K_gate (k, args) ->
        let h = ref (Hashtbl.hash k) in
        Array.iter (fun a -> h := (!h * 31) + a + 1) args;
        !h land max_int
end

module Tbl = Hashtbl.Make (Key)

type builder = {
  num_inputs : int;
  table : node Tbl.t;
  mutable next_id : int;
}

let builder ~num_inputs () =
  if num_inputs < 0 then invalid_arg "Circuit.builder: negative num_inputs";
  { num_inputs; table = Tbl.create 1024; next_id = 0 }

let intern b key desc =
  match Tbl.find_opt b.table key with
  | Some n -> n
  | None ->
      let n = { id = b.next_id; desc } in
      b.next_id <- b.next_id + 1;
      Tbl.add b.table key n;
      n

let input b i =
  if i < 0 || i >= b.num_inputs then invalid_arg "Circuit.input: out of range";
  intern b (Key.K_input i) (Input i)

let const b v = intern b (Key.K_const v) (Const v)

let gate b kind args =
  (match (kind, args) with
  | Not, [ _ ] -> ()
  | Not, _ -> invalid_arg "Circuit.gate: Not takes exactly one argument"
  | (And | Or | Xor | Nand | Nor | Xnor), [] ->
      invalid_arg "Circuit.gate: empty fan-in"
  | (And | Or | Xor | Nand | Nor | Xnor), _ -> ());
  match args with
  | [ single ] when kind = And || kind = Or -> single
  | _ ->
      let arr = Array.of_list args in
      let ids = Array.map (fun n -> n.id) arr in
      intern b (Key.K_gate (kind, ids)) (Gate (kind, arr))

let and_ b args = gate b And args
let or_ b args = gate b Or args
let not_ b arg = gate b Not [ arg ]
let xor_ b args = gate b Xor args

let at_least b k args =
  let arr = Array.of_list args in
  let n = Array.length arr in
  if k <= 0 then const b true
  else if k > n then const b false
  else begin
    (* th j i = "at least j of arr.(i..n-1)", by the recurrence
       th(j,i) = x_i·th(j-1,i+1) + th(j,i+1), memoized: O(k·n) gates. *)
    let top = const b true and bottom = const b false in
    let memo = Hashtbl.create ((n * k) + 1) in
    let rec th j i =
      if j <= 0 then top
      else if j > n - i then bottom
      else
        match Hashtbl.find_opt memo (j, i) with
        | Some node -> node
        | None ->
            let with_xi = th (j - 1) (i + 1) in
            let without_xi = th j (i + 1) in
            let taken =
              if with_xi == top then arr.(i) else and_ b [ arr.(i); with_xi ]
            in
            let node =
              if without_xi == bottom then taken else or_ b [ taken; without_xi ]
            in
            Hashtbl.add memo (j, i) node;
            node
    in
    th k 0
  end

let at_most b k args = not_ b (at_least b (k + 1) args)

let exactly b k args = and_ b [ at_least b k args; at_most b k args ]

let finish b ~name output = { output; num_inputs = b.num_inputs; name }

(* --- the walk ------------------------------------------------------------ *)

(* A gate is interned after its fan-in, so every node reachable from the
   output has an id no greater than the output's: [output.id + 1] flat
   slots index them all. *)
let slots c = c.output.id + 1

(* Depth-first, left-most postorder without recursion. [next.(id)] is -1
   until the node is reached, then the index of its next fan-in to visit;
   a DAG never reaches a node still on the stack, so each is pushed
   once. *)
let nodes c =
  let n = slots c in
  let next = Array.make n (-1) in
  let stack = Array.make n c.output and order = Array.make n c.output in
  let sp = ref 1 and count = ref 0 in
  next.(c.output.id) <- 0;
  while !sp > 0 do
    let node = stack.(!sp - 1) in
    let i = next.(node.id) in
    match node.desc with
    | Gate (_, args) when i < Array.length args ->
        next.(node.id) <- i + 1;
        let a = args.(i) in
        if next.(a.id) < 0 then begin
          next.(a.id) <- 0;
          stack.(!sp) <- a;
          incr sp
        end
    | Input _ | Const _ | Gate _ ->
        order.(!count) <- node;
        incr count;
        decr sp
  done;
  Array.sub order 0 !count

let fold ?last_use ?after c f =
  let order = nodes c in
  (* The memo is made from the first value: the first node of a postorder
     is a leaf, whose step reads no fan-in. *)
  let memo = ref [||] in
  let value node = !memo.(node.id) in
  (* One pending use per fan-in occurrence; the output has none, since
     nothing consumes it. *)
  let release =
    match last_use with
    | None -> None
    | Some report ->
        let uses = Array.make (slots c) 0 in
        Array.iter
          (fun node ->
            match node.desc with
            | Gate (_, args) -> Array.iter (fun a -> uses.(a.id) <- uses.(a.id) + 1) args
            | Input _ | Const _ -> ())
          order;
        Some
          (fun a ->
            let r = uses.(a.id) - 1 in
            uses.(a.id) <- r;
            if r = 0 then report a (value a))
  in
  Array.iteri
    (fun k node ->
      let v = f node value in
      if k = 0 then memo := Array.make (slots c) v else !memo.(node.id) <- v;
      (match (release, node.desc) with
      | Some release, Gate (_, args) -> Array.iter release args
      | (Some _ | None), (Input _ | Const _ | Gate _) -> ());
      match after with Some after -> after node | None -> ())
    order;
  value

type 'a ops = {
  and_ : 'a -> 'a -> 'a;
  or_ : 'a -> 'a -> 'a;
  xor_ : 'a -> 'a -> 'a;
  not_ : 'a -> 'a;
  own : 'a -> 'a;
}

let fold_args ops op args value =
  let acc = ref (ops.own (value args.(0))) in
  for i = 1 to Array.length args - 1 do
    acc := op !acc (value args.(i))
  done;
  !acc

let reduce ops kind args value =
  match kind with
  | And -> fold_args ops ops.and_ args value
  | Or -> fold_args ops ops.or_ args value
  | Xor -> fold_args ops ops.xor_ args value
  | Not -> ops.not_ (ops.own (value args.(0)))
  | Nand -> ops.not_ (fold_args ops ops.and_ args value)
  | Nor -> ops.not_ (fold_args ops ops.or_ args value)
  | Xnor -> ops.not_ (fold_args ops ops.xor_ args value)

let substitute b circuit ~subst =
  fold circuit
    (fun node value ->
      match node.desc with
      | Input i -> subst i
      | Const v -> const b v
      | Gate (kind, args) -> gate b kind (Array.to_list (Array.map value args)))
    circuit.output

let eval c assignment =
  fold c
    (fun node value ->
      match node.desc with
      | Input i -> assignment i
      | Const b -> b
      | Gate (kind, args) -> (
          let vals = Array.map value args in
          match kind with
          | And -> Array.for_all Fun.id vals
          | Or -> Array.exists Fun.id vals
          | Not -> not vals.(0)
          | Xor -> Array.fold_left (fun a x -> a <> x) false vals
          | Nand -> not (Array.for_all Fun.id vals)
          | Nor -> not (Array.exists Fun.id vals)
          | Xnor -> not (Array.fold_left (fun a x -> a <> x) false vals)))
    c.output

let gate_count c =
  Array.fold_left
    (fun n node -> match node.desc with Gate _ -> n + 1 | Input _ | Const _ -> n)
    0 (nodes c)

let node_count c = Array.length (nodes c)

let inputs_used c =
  Array.fold_left
    (fun acc node -> match node.desc with Input i -> i :: acc | Gate _ | Const _ -> acc)
    [] (nodes c)
  |> List.sort_uniq compare

let postorder c = Array.to_list (nodes c)

let gate_kind_name = function
  | And -> "AND"
  | Or -> "OR"
  | Not -> "NOT"
  | Xor -> "XOR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Xnor -> "XNOR"

let to_dot c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph circuit {\n  rankdir=BT;\n";
  Array.iter
    (fun node ->
      let label =
        match node.desc with
        | Input i -> Printf.sprintf "x%d" i
        | Const b -> if b then "1" else "0"
        | Gate (kind, _) -> gate_kind_name kind
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" node.id label);
      match node.desc with
      | Input _ | Const _ -> ()
      | Gate (_, args) ->
          Array.iter
            (fun a ->
              Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" a.id node.id))
            args)
    (nodes c);
  Buffer.add_string buf
    (Printf.sprintf "  out [shape=plaintext]; n%d -> out;\n}\n" c.output.id);
  Buffer.contents buf
