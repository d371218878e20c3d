module B = Socy_bdd.Manager
module Par = Socy_bdd.Par
module Obs = Socy_obs.Obs

type layout = {
  group_of_level : int array;
  levels_of_group : int array array;
  codeword : int -> int -> bool array;
}

(* Entry lists below a minimum size are not worth a team barrier. *)
let par_layer_threshold = 64

let obs_par_layers = Obs.counter "mdd.convert.par_layers"

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
     ints bounded by [B.handle_bound], so both tables become flat
     int-indexed structures (a bitset and an array) instead of polymorphic
     hash tables — the scan was one of the two hottest stages. *)
  let entries = Array.make num_groups [] in
  let mark n = entries.(group_of n) <- n :: entries.(group_of n) in
  let seen = Socy_util.Bitset.create (B.handle_bound bdd) in
  (* Explicit-stack DFS (deep coded ROBDDs must not overflow the OCaml
     stack): each reachable node is expanded once, and each cross-group edge
     marks its target — the same edge multiset the recursive walk visited. *)
  let scan root =
    let stack = ref [] in
    let visit n =
      if not (Socy_util.Bitset.mem seen n) then begin
        Socy_util.Bitset.add seen n;
        if not (B.is_terminal n) then stack := n :: !stack
      end
    in
    visit root;
    let rec drain () =
      match !stack with
      | [] -> ()
      | n :: rest ->
          stack := rest;
          let g = group_of n in
          let edge c =
            if (not (B.is_terminal c)) && group_of c <> g then mark c;
            visit c
          in
          edge (B.low bdd n);
          edge (B.high bdd n);
          drain ()
    in
    drain ()
  in
  if not (B.is_terminal root) then mark root;
  Obs.with_span "mdd.convert.scan" (fun () -> scan root);
  (* A cross-group edge marks its target once per incoming edge, so the
     entry lists carry duplicates. Materialize each list keeping the
     FIRST occurrence in list order — exactly the subsequence on which
     the former duplicate-skipping loop called [Mdd.mk] — so ROMDD node
     ids stay bit-identical to what this pass always produced, with or
     without a team. *)
  let dedup = Socy_util.Bitset.create (B.handle_bound bdd) in
  let entries =
    Array.map
      (fun l ->
        let keep =
          List.filter
            (fun n ->
              if Socy_util.Bitset.mem dedup n then false
              else begin
                Socy_util.Bitset.add dedup n;
                true
              end)
            l
        in
        Array.of_list keep)
      entries
  in
  (* Pass 2: process layers bottom-up. [mapping] associates processed entry
     nodes (and terminals) with ROMDD nodes; -1 marks "not yet mapped"
     (ROMDD handles are nonnegative). Indexed by BDD handle, so the entry
     parity is part of the key — see the pass-1 comment.

     Each layer splits into two phases. (a) For every entry, simulate the
     codewords through the BDD and resolve the child ROMDD handles — pure
     reads of the frozen BDD and of [mapping] slots written by DEEPER
     layers (simulation targets are terminals or entries of already
     processed layers, never this one), so entries are independent and the
     phase partitions across the team, one chunk per task, with the
     [Par.run] join as the per-level barrier. (b) [Mdd.mk] every entry in
     the fixed array order — sequential, because the MDD hash-cons table
     is not thread-safe, and deterministic, so node ids never depend on
     the team size. Without a team (or under the size threshold) both
     phases run fused on the caller, which is the same code path the
     sequential engine always took. *)
  let mapping = Array.make (max 2 (B.handle_bound bdd)) (-1) in
  mapping.(B.zero) <- Mdd.zero;
  mapping.(B.one) <- Mdd.one;
  let simulate g bits entry =
    (* Follow the codeword [bits] through layer [g], skipping the bits the
       BDD does not test. *)
    let rec follow n =
      if B.is_terminal n || group_of n <> g then n
      else
        let bit = bits.(pos_in_group.(B.level bdd n)) in
        follow (if bit then B.high bdd n else B.low bdd n)
    in
    follow entry
  in
  (* [words.(value)] is the codeword of [value] in layer [g], built once
     per layer before any entry is simulated (and before [Par.run], so the
     team only reads it). *)
  let child g words entry value =
    let target = simulate g words.(value) entry in
    let mnode = mapping.(target) in
    if mnode < 0 then
      (* Unreachable in a correct layout: targets are terminals or
         entries of deeper, already processed layers. *)
      invalid_arg
        "Conversion.run: simulation escaped to an unprocessed node; is the \
         layout group-contiguous?";
    mnode
  in
  let entry_counter = Obs.counter "mdd.convert.entry_nodes" in
  let layer_hist = Obs.histogram "mdd.convert.layer_entries" in
  for g = num_groups - 1 downto 0 do
    Obs.with_span "mdd.convert.layer" (fun () ->
        let ents = entries.(g) in
        let n = Array.length ents in
        Obs.add entry_counter n;
        Obs.observe layer_hist (float_of_int n);
        let domain = (Mdd.spec mdd g).domain in
        let words = Array.init domain (layout.codeword g) in
        match team with
        | Some team when n >= par_layer_threshold && Par.domains team > 1 ->
            Obs.incr obs_par_layers;
            let kids = Array.make n [||] in
            let nchunks = 4 * Par.domains team in
            let chunk = (n + nchunks - 1) / nchunks in
            let tasks =
              Array.init ((n + chunk - 1) / chunk) (fun ti ->
                  fun () ->
                    let i0 = ti * chunk in
                    let i1 = min n (i0 + chunk) in
                    for i = i0 to i1 - 1 do
                      let entry = ents.(i) in
                      kids.(i) <- Array.init domain (child g words entry)
                    done)
            in
            Par.run team tasks;
            for i = 0 to n - 1 do
              mapping.(ents.(i)) <- Mdd.mk mdd g kids.(i)
            done
        | _ ->
            Array.iter
              (fun entry ->
                mapping.(entry) <-
                  Mdd.mk mdd g (Array.init domain (child g words entry)))
              ents)
  done;
  mapping.(root)
