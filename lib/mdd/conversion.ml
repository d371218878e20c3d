module B = Socy_bdd.Manager
module Par = Socy_bdd.Par
module Obs = Socy_obs.Obs
module Int_vec = Socy_util.Int_vec

type layout = {
  group_of_level : int array;
  levels_of_group : int array array;
  codeword : int -> int -> bool array;
}

(* Entry lists below a minimum size are not worth a team barrier. *)
let par_layer_threshold = 64

let obs_par_layers = Obs.counter "mdd.convert.par_layers"

(* The codewords of one layer as a binary trie over the layer's bit
   positions, in level order, flattened into arrays indexed by trie node
   (0 is the root). Node [x] sits at depth [depth.(x)] and has the
   children [low.(x)] and [high.(x)] (-1 where no codeword continues).
   The values whose codewords pass through [x] are
   [values.(lo.(x)) .. values.(hi.(x) - 1)]: [values] lists the domain
   sorted by codeword, so every prefix owns one contiguous run. *)
type trie = {
  depth : int array;
  low : int array;
  high : int array;
  lo : int array;
  hi : int array;
  values : int array;
}

let trie_of_codewords words nbits =
  Array.iter
    (fun w ->
      if Array.length w <> nbits then
        invalid_arg "Conversion.run: a codeword must have one bit per level of its group")
    words;
  let values = Array.init (Array.length words) Fun.id in
  Array.stable_sort (fun a b -> compare words.(a) words.(b)) values;
  let cap = 1 + (Array.length words * nbits) in
  let trie =
    {
      depth = Array.make cap 0;
      low = Array.make cap (-1);
      high = Array.make cap (-1);
      lo = Array.make cap 0;
      hi = Array.make cap 0;
      values;
    }
  in
  let count = ref 0 in
  (* Recursion depth is the group's bit count. *)
  let rec node d lo hi =
    let x = !count in
    incr count;
    trie.depth.(x) <- d;
    trie.lo.(x) <- lo;
    trie.hi.(x) <- hi;
    if d < nbits then begin
      (* The run shares bits 0 .. d-1 and is sorted: bit d clear first. *)
      let mid = ref lo in
      while !mid < hi && not words.(values.(!mid)).(d) do
        incr mid
      done;
      if !mid > lo then trie.low.(x) <- node (d + 1) lo !mid;
      if hi > !mid then trie.high.(x) <- node (d + 1) !mid hi
    end;
    x
  in
  ignore (node 0 0 (Array.length words));
  trie

let run ?team bdd root mdd layout =
  let num_groups = Array.length layout.levels_of_group in
  if num_groups <> Mdd.num_mvars mdd then
    invalid_arg "Conversion.run: group count must match the MDD manager";
  let group_of n = layout.group_of_level.(B.level bdd n) in
  (* Position of a BDD level within its group (levels are few per group;
     precompute a direct map). *)
  let pos_in_group = Array.make (B.num_vars bdd) (-1) in
  Array.iter
    (fun levels -> Array.iteri (fun i lv -> pos_in_group.(lv) <- i) levels)
    layout.levels_of_group;
  (* Pass 1: find the entry nodes of each layer. An entry node is the root,
     or a nonterminal target of an edge whose source lies in a different
     group.

     Complement-edge parity threading: BDD handles carry a complement bit,
     and [B.low]/[B.high] fold the handle's parity into the child they
     return — so the handle itself encodes the accumulated parity of the
     path that reached it. Keying [seen] (and [mapping] below) by handle
     therefore visits the two polarities of a shared physical node as the
     two distinct boolean functions they are, which is exactly what the
     ROMDD construction needs: the produced diagram is the same canonical
     ROMDD the two-terminal engine yielded. Handles are dense nonnegative
     ints bounded by [B.handle_bound], so both tables are flat
     handle-indexed arrays (bytes and ints), and the walk keeps its stack
     and the marks in int vectors: no cons cell per node. *)
  let marks = Array.init num_groups (fun _ -> Int_vec.create ()) in
  let mark n = ignore (Int_vec.push marks.(group_of n) n) in
  let seen = Bytes.make (B.handle_bound bdd) '\000' in
  let stack = Int_vec.create () in
  let visit n =
    if Bytes.get seen n = '\000' then begin
      Bytes.set seen n '\001';
      if not (B.is_terminal n) then ignore (Int_vec.push stack n)
    end
  in
  let edge g c =
    if (not (B.is_terminal c)) && group_of c <> g then mark c;
    visit c
  in
  (* Explicit-stack DFS (deep coded ROBDDs must not overflow the OCaml
     stack): each reachable node is expanded once, and each cross-group edge
     marks its target — the same edge multiset the recursive walk visited. *)
  let scan root =
    visit root;
    while Int_vec.length stack > 0 do
      let n = Int_vec.pop stack in
      let g = group_of n in
      edge g (B.low bdd n);
      edge g (B.high bdd n)
    done
  in
  if not (B.is_terminal root) then mark root;
  Obs.with_span "mdd.convert.scan" (fun () -> scan root);
  (* A cross-group edge marks its target once per incoming edge, so the
     marks carry duplicates. Each layer's entries are its marks, latest
     first, each node kept at its latest mark — the order in which the
     conversion has always called [Mdd.mk], so ROMDD node ids stay
     bit-identical, with or without a team. The scan's [seen] is done
     with, and marks the nodes kept. *)
  let kept = seen in
  Bytes.fill kept 0 (Bytes.length kept) '\000';
  let entries =
    Array.map
      (fun marked ->
        let ents = Int_vec.create ~capacity:(Int_vec.length marked) () in
        for i = Int_vec.length marked - 1 downto 0 do
          let n = Int_vec.get marked i in
          if Bytes.get kept n = '\000' then begin
            Bytes.set kept n '\001';
            ignore (Int_vec.push ents n)
          end
        done;
        ents)
      marks
  in
  (* Pass 2: process layers bottom-up. [mapping] associates processed entry
     nodes (and terminals) with ROMDD nodes; -1 marks "not yet mapped"
     (ROMDD handles are nonnegative). Indexed by BDD handle, so the entry
     parity is part of the key — see the pass-1 comment.

     An entry's ROMDD children come from one walk of the layer's codeword
     trie together with the BDD ([descend]), which follows every codeword
     at once and leaves each shared prefix once. Each layer splits into
     two phases. (a) Walk every entry — pure reads of the frozen BDD, the
     trie and [mapping] slots written by DEEPER layers (walks leave the
     layer at terminals or entries of already processed layers, never
     this one), so entries are independent and the phase partitions
     across the team, one chunk per task, with the [Par.run] join as the
     per-level barrier. (b) [Mdd.mk] every entry in the fixed entry order —
     sequential, because the MDD hash-cons table is not thread-safe, and
     deterministic, so node ids never depend on the team size. Without a
     team (or under the size threshold) both phases run fused on the
     caller. *)
  let mapping = Array.make (max 2 (B.handle_bound bdd)) (-1) in
  mapping.(B.zero) <- Mdd.zero;
  mapping.(B.one) <- Mdd.one;
  (* Walk trie node [x] and BDD node [n] of layer [g] together, writing
     the ROMDD child of every value under [x] into [kids] from [off]. A
     node that tests the bit at [x]'s depth splits its edges between the
     two sides; a node whose level lies deeper does not read that bit and
     goes down both sides. Once the walk leaves the layer, every value
     under [x] gets the target's ROMDD node. Recursion depth is the
     group's bit count. *)
  let rec descend g trie kids off x n =
    let lv = if B.is_terminal n then -1 else B.level bdd n in
    if lv < 0 || layout.group_of_level.(lv) <> g then begin
      let mnode = mapping.(n) in
      if mnode < 0 then
        (* Unreachable in a correct layout: targets are terminals or
           entries of deeper, already processed layers. *)
        invalid_arg
          "Conversion.run: simulation escaped to an unprocessed node; is the \
           layout group-contiguous?";
      for i = trie.lo.(x) to trie.hi.(x) - 1 do
        kids.(off + trie.values.(i)) <- mnode
      done
    end
    else begin
      let pos = pos_in_group.(lv) and d = trie.depth.(x) in
      if pos < d then
        invalid_arg "Conversion.run: a group's levels must be listed in increasing order";
      let z = trie.low.(x) and o = trie.high.(x) in
      if pos = d then begin
        if z >= 0 then descend g trie kids off z (B.low bdd n);
        if o >= 0 then descend g trie kids off o (B.high bdd n)
      end
      else begin
        if z >= 0 then descend g trie kids off z n;
        if o >= 0 then descend g trie kids off o n
      end
    end
  in
  (* Phase (a)'s output on a team, one row of children per entry, kept
     from layer to layer and grown only for a larger layer. *)
  let par_kids = ref [||] in
  let entry_counter = Obs.counter "mdd.convert.entry_nodes" in
  let layer_hist = Obs.histogram "mdd.convert.layer_entries" in
  for g = num_groups - 1 downto 0 do
    Obs.with_span "mdd.convert.layer" (fun () ->
        let ents = entries.(g) in
        let n = Int_vec.length ents in
        Obs.add entry_counter n;
        Obs.observe layer_hist (float_of_int n);
        let domain = (Mdd.spec mdd g).domain in
        let trie =
          trie_of_codewords
            (Array.init domain (layout.codeword g))
            (Array.length layout.levels_of_group.(g))
        in
        (* [Mdd.mk] copies its argument, so one buffer serves the layer. *)
        let buf = Array.make domain 0 in
        match team with
        | Some team when n >= par_layer_threshold && Par.domains team > 1 ->
            Obs.incr obs_par_layers;
            if Array.length !par_kids < n * domain then par_kids := Array.make (n * domain) 0;
            let kids = !par_kids in
            let nchunks = 4 * Par.domains team in
            let chunk = (n + nchunks - 1) / nchunks in
            let tasks =
              Array.init ((n + chunk - 1) / chunk) (fun ti ->
                  fun () ->
                    let i0 = ti * chunk in
                    let i1 = min n (i0 + chunk) in
                    for i = i0 to i1 - 1 do
                      descend g trie kids (i * domain) 0 (Int_vec.get ents i)
                    done)
            in
            Par.run team tasks;
            for i = 0 to n - 1 do
              for v = 0 to domain - 1 do
                buf.(v) <- kids.((i * domain) + v)
              done;
              mapping.(Int_vec.get ents i) <- Mdd.mk mdd g buf
            done
        | _ ->
            for i = 0 to n - 1 do
              let entry = Int_vec.get ents i in
              descend g trie buf 0 0 entry;
              mapping.(entry) <- Mdd.mk mdd g buf
            done)
  done;
  mapping.(root)
