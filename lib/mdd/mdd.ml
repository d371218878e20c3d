module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Memory = Socy_obs.Memory
module Json = Socy_obs.Json
module Int_vec = Socy_util.Int_vec

type spec = { name : string; domain : int }

type node = int

type t = {
  specs : spec array;
  arity : int array; (* level -> domain *)
  (* Node store. Node [n] tests level [levels.(n)]. Its children are
     copied at creation into a pool of int chunks, which never move: they
     are [k.(b) .. k.(b + arity.(levels.(n)) - 1)] for the chunk
     [k = chunks.(offs.(n) lsr chunk_shift)] and [b = offs.(n) land
     offset_mask] ([chunk_of], [base_of]). Chunks double from
     [first_chunk] to [max_chunk] words, so a small manager touches little
     memory and a large one never copies its children. Ids are handed out
     in creation order. The terminals 0 and 1 sit at level [num_mvars] and
     own no children. *)
  mutable levels : int array;
  mutable offs : int array;
  mutable chunks : int array array;
  mutable nchunks : int;
  mutable fill : int; (* words used in chunk [nchunks - 1] *)
  mutable used : int;
  (* Unique table: open addressing with linear probing over node ids,
     kept at most half full. Slot [i] holds an id at [utab.(2 i)] (-1 when
     empty) and that node's hash at [utab.(2 i + 1)], so a probe rejects
     most other nodes without reading their children. *)
  mutable utab : int array;
  mutable umask : int; (* slots - 1 *)
  (* APPLY child buffer, reused across calls; layout at [apply_rec]. *)
  mutable ap_kids : int array;
  (* APPLY computed cache: direct-mapped over int keys (op, f, g), like the
     ROBDD manager's ITE cache. Bounded by construction — a colliding entry
     overwrites — so repeated APPLYs on one manager cannot grow memory past
     [ap_max] lines. It starts at [2^initial_cache_bits] lines and doubles
     on a miss while the manager holds more nodes than it has lines. *)
  mutable ap_op : int array;
  mutable ap_f : int array;
  mutable ap_g : int array;
  mutable ap_r : int array;
  mutable ap_mask : int;
  mutable ap_grow_at : int; (* line count, or [max_int] at [ap_max] lines *)
  ap_max : int;
  (* Budgets. [intern] checks the node limit on every creation: nodes
     are never freed, so the created count [used] is also the live count
     and the peak. APPLY reads the clock against the CPU deadline every
     [clock_period] steps (cache misses). *)
  node_limit : int;
  cpu_deadline : float; (* [Sys.time ()] value; infinity = off *)
  (* Plain integer statistics, unconditionally cheap; published to the
     process-wide registry as deltas by [publish_obs]. *)
  mutable apply_hits : int;
  mutable apply_misses : int;
  mutable sweeps : int;
  mutable pub_apply_hits : int;
  mutable pub_apply_misses : int;
}

exception Node_limit_exceeded = Socy_bdd.Manager.Node_limit_exceeded
exception Cpu_limit_exceeded = Socy_bdd.Manager.Cpu_limit_exceeded

let zero = 0
let one = 1
let is_terminal n = n < 2

let initial_cache_bits = 12
let initial_nodes = 1024
let initial_slots = 4096
let first_chunk = 4096
let max_chunk = 1 lsl 16
let chunk_shift = 32
let offset_mask = (1 lsl chunk_shift) - 1
let clock_period = 65536

let create ?(node_limit = max_int) ?cpu_limit ?(cache_bits = 16) specs =
  Array.iter
    (fun s ->
      if s.domain < 1 then invalid_arg "Mdd.create: empty domain")
    specs;
  if cache_bits < 1 || cache_bits > 28 then
    invalid_arg "Mdd.create: cache_bits out of range";
  if node_limit < 1 then invalid_arg "Mdd.create: node_limit must be >= 1";
  let nvars = Array.length specs in
  let lines = 1 lsl min cache_bits initial_cache_bits in
  let ap_max = 1 lsl cache_bits in
  let levels = Array.make initial_nodes (-1) in
  levels.(0) <- nvars;
  levels.(1) <- nvars;
  {
    specs;
    arity = Array.map (fun s -> s.domain) specs;
    levels;
    offs = Array.make initial_nodes 0;
    chunks = Array.make 8 [||];
    nchunks = 0;
    fill = 0;
    used = 2;
    utab = Array.make (2 * initial_slots) (-1);
    umask = initial_slots - 1;
    ap_kids = Array.make 256 0;
    ap_op = Array.make lines (-1);
    ap_f = Array.make lines 0;
    ap_g = Array.make lines 0;
    ap_r = Array.make lines 0;
    ap_mask = lines - 1;
    ap_grow_at = (if lines < ap_max then lines else max_int);
    ap_max;
    node_limit;
    cpu_deadline =
      (match cpu_limit with None -> infinity | Some s -> Sys.time () +. s);
    apply_hits = 0;
    apply_misses = 0;
    sweeps = 0;
    pub_apply_hits = 0;
    pub_apply_misses = 0;
  }

let num_mvars t = Array.length t.specs

let spec t v =
  if v < 0 || v >= num_mvars t then invalid_arg "Mdd.spec: out of range";
  t.specs.(v)

let level t n = t.levels.(n)

let chunk_of t n = t.chunks.(t.offs.(n) lsr chunk_shift)
let base_of t n = t.offs.(n) land offset_mask

let children t n =
  if is_terminal n then invalid_arg "Mdd.children: terminal node";
  Array.sub (chunk_of t n) (base_of t n) t.arity.(t.levels.(n))

(* A copy of [a] in an array of [size] slots, the rest filled with [fill].
   Int arrays are copied by a loop of plain stores: [Array.blit] into a
   block of the major heap goes through the write barrier per element. *)
let extend (a : int array) size fill =
  let b = Array.make size fill in
  for i = 0 to Array.length a - 1 do
    b.(i) <- a.(i)
  done;
  b

(* Room for [d] more children: a fresh chunk when the last one is full. *)
let reserve t d =
  if t.nchunks = 0 || t.fill + d > Array.length t.chunks.(t.nchunks - 1) then begin
    let last = if t.nchunks = 0 then first_chunk / 2 else Array.length t.chunks.(t.nchunks - 1) in
    if t.nchunks = Array.length t.chunks then begin
      let chunks = Array.make (2 * t.nchunks) [||] in
      Array.blit t.chunks 0 chunks 0 t.nchunks;
      t.chunks <- chunks
    end;
    t.chunks.(t.nchunks) <- Array.make (max d (min max_chunk (2 * last))) 0;
    t.nchunks <- t.nchunks + 1;
    t.fill <- 0
  end

let grow_nodes t =
  let cap = Array.length t.levels in
  Trace.instant "mdd.grow" ~args:[ ("slots", Json.Int (2 * cap)) ];
  t.levels <- extend t.levels (2 * cap) (-1);
  t.offs <- extend t.offs (2 * cap) 0

(* Hash of a node: its level and its children [a.(off) .. a.(off + d - 1)],
   folded with a multiply per child and finished with a xorshift-multiply
   round, so that the low bits that pick a slot depend on every child. *)
let hash_node lv a off d =
  let h = ref (lv + 1) in
  for i = off to off + d - 1 do
    h := (!h + a.(i)) * 0x2545F4914F6CDD1D
  done;
  let h = !h in
  let h = (h lxor (h lsr 29)) * 0x165667B19E3779F9 in
  (h lxor (h lsr 32)) land max_int

(* Double the unique table, re-inserting every id at its stored hash. *)
let rehash t =
  let old = t.utab in
  let slots = 2 * (t.umask + 1) in
  let mask = slots - 1 in
  let tab = Array.make (2 * slots) (-1) in
  for i = 0 to t.umask do
    let n = old.(2 * i) in
    if n >= 0 then begin
      let h = old.((2 * i) + 1) in
      let j = ref (h land mask) in
      while tab.(2 * !j) >= 0 do
        j := (!j + 1) land mask
      done;
      tab.(2 * !j) <- n;
      tab.((2 * !j) + 1) <- h
    end
  done;
  t.utab <- tab;
  t.umask <- mask

(* The node at level [lv] whose children are [a.(off) .. a.(off + d - 1)],
   [d] the level's arity: found in the unique table, or created at the
   next id with the children copied into the pool. The caller has applied
   the elimination rule. Loops rather than local functions, so that a
   lookup allocates nothing. *)
let intern t lv a off =
  let d = t.arity.(lv) in
  let h = hash_node lv a off d in
  let i = ref (h land t.umask) and found = ref (-1) in
  while !found < 0 && t.utab.(2 * !i) >= 0 do
    let n = t.utab.(2 * !i) in
    if t.utab.((2 * !i) + 1) = h && t.levels.(n) = lv then begin
      let kids = chunk_of t n and base = base_of t n and j = ref 0 in
      while !j < d && kids.(base + !j) = a.(off + !j) do
        incr j
      done;
      if !j = d then found := n
    end;
    if !found < 0 then i := (!i + 1) land t.umask
  done;
  if !found >= 0 then !found
  else begin
    if t.used >= t.node_limit then raise Node_limit_exceeded;
    if t.used = Array.length t.levels then grow_nodes t;
    reserve t d;
    let n = t.used and c = t.nchunks - 1 in
    t.used <- n + 1;
    t.levels.(n) <- lv;
    t.offs.(n) <- (c lsl chunk_shift) lor t.fill;
    let kids = t.chunks.(c) and base = t.fill in
    for j = 0 to d - 1 do
      kids.(base + j) <- a.(off + j)
    done;
    t.fill <- base + d;
    t.utab.(2 * !i) <- n;
    t.utab.((2 * !i) + 1) <- h;
    (* ids 2 .. n are in the table *)
    if 2 * (n - 1) > t.umask + 1 then rehash t;
    n
  end

(* [mk] on the children [a.(off) .. a.(off + arity - 1)]. *)
let mk_sub t lv a off =
  let d = t.arity.(lv) in
  let first = a.(off) and j = ref 1 in
  while !j < d && a.(off + !j) = first do
    incr j
  done;
  if !j = d then first else intern t lv a off

let mk t lv children =
  if lv < 0 || lv >= num_mvars t then invalid_arg "Mdd.mk: level out of range";
  if Array.length children <> t.arity.(lv) then
    invalid_arg "Mdd.mk: children arity must match the variable domain";
  mk_sub t lv children 0

let literal t lv ~values =
  let domain = (spec t lv).domain in
  let children = Array.make domain zero in
  List.iter
    (fun j ->
      if j < 0 || j >= domain then invalid_arg "Mdd.literal: value out of domain";
      children.(j) <- one)
    values;
  mk t lv children

(* Generic binary APPLY with short-circuit evaluation per operation. *)
type op = O_and | O_or | O_xor

let op_code = function O_and -> 0 | O_or -> 1 | O_xor -> 2

(* Sequential multiply-xorshift chain (splitmix-style), matching the BDD
   engine's mix: the former xor-of-three-products was linear in its inputs
   and collided systematically in the direct-mapped APPLY cache. *)
let hash3 a b c =
  let h = a * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 31) lxor b) * 0x165667B19E3779F9 in
  let h = (h lxor (h lsr 29) lxor c) * 0x27D4EB2F165667C5 in
  (h lxor (h lsr 32)) land max_int

(* Double the APPLY cache, re-inserting every filled line under the new
   mask. Cache lines hold no node the diagram depends on, and a finished
   call re-hashes its line under the current mask, so the size changes
   hit and miss counts only. *)
let grow_apply_cache t =
  let n = 2 * (t.ap_mask + 1) in
  let mask = n - 1 in
  let op = Array.make n (-1) and f = Array.make n 0 in
  let g = Array.make n 0 and r = Array.make n 0 in
  for i = 0 to t.ap_mask do
    let k = t.ap_op.(i) in
    if k >= 0 then begin
      let j = hash3 k t.ap_f.(i) t.ap_g.(i) land mask in
      op.(j) <- k;
      f.(j) <- t.ap_f.(i);
      g.(j) <- t.ap_g.(i);
      r.(j) <- t.ap_r.(i)
    end
  done;
  t.ap_op <- op;
  t.ap_f <- f;
  t.ap_g <- g;
  t.ap_r <- r;
  t.ap_mask <- mask;
  t.ap_grow_at <- (if n < t.ap_max then n else max_int)

(* The result when [op] short-circuits on [f] and [g], else -1. *)
let shortcut op f g =
  match op with
  | O_and ->
      if f = zero || g = zero then zero
      else if f = one then g
      else if g = one then f
      else if f = g then f
      else -1
  | O_or ->
      if f = one || g = one then one
      else if f = zero then g
      else if g = zero then f
      else if f = g then f
      else -1
  | O_xor ->
      if f = g then zero
      else if f = zero then g
      else if g = zero then f
      else if is_terminal f && is_terminal g then one
      else -1

(* Recursive APPLY. Every call that recurses descends at least one level,
   so the depth is at most the number of variables. A call that misses
   the cache owns [t.ap_kids] from [base]: the [d] child results, then
   one (f_j, g_j, j) triple per distinct operand pair, where [j] is the
   first value that met the pair; its sub-calls own the buffer past its
   last triple. The buffer may be replaced while a sub-call grows it, so
   it is re-read after every sub-call. *)
let rec apply_rec t op f g base =
  let r = shortcut op f g in
  if r >= 0 then r
  else begin
    (* Commutative ops: normalize the key. *)
    let a = if f <= g then f else g and b = if f <= g then g else f in
    let i = hash3 (op_code op) a b land t.ap_mask in
    if t.ap_op.(i) = op_code op && t.ap_f.(i) = a && t.ap_g.(i) = b then begin
      t.apply_hits <- t.apply_hits + 1;
      t.ap_r.(i)
    end
    else begin
      t.apply_misses <- t.apply_misses + 1;
      if
        t.apply_misses land (clock_period - 1) = 0
        && t.cpu_deadline < infinity
        && Sys.time () > t.cpu_deadline
      then raise Cpu_limit_exceeded;
      if t.used > t.ap_grow_at then grow_apply_cache t;
      let la = t.levels.(a) and lb = t.levels.(b) in
      let lv = if la <= lb then la else lb in
      let d = t.arity.(lv) in
      if base + (4 * d) > Array.length t.ap_kids then
        t.ap_kids <- extend t.ap_kids (2 * (base + (4 * d))) 0;
      let pairs = base + d and nd = ref 0 in
      for j = 0 to d - 1 do
        let cf = if t.levels.(a) = lv then (chunk_of t a).(base_of t a + j) else a in
        let cg = if t.levels.(b) = lv then (chunk_of t b).(base_of t b + j) else b in
        (* A pair met before gets that value's result: a second call on it
           could only hit the cache or rebuild nodes that exist. Equal
           children come in runs, so the search starts at the latest pair. *)
        let s = t.ap_kids and k = ref (!nd - 1) in
        while !k >= 0 && not (s.(pairs + (3 * !k)) = cf && s.(pairs + (3 * !k) + 1) = cg) do
          decr k
        done;
        if !k >= 0 then s.(base + j) <- s.(base + s.(pairs + (3 * !k) + 2))
        else begin
          let p = pairs + (3 * !nd) in
          s.(p) <- cf;
          s.(p + 1) <- cg;
          s.(p + 2) <- j;
          incr nd;
          let r = apply_rec t op cf cg (p + 3) in
          t.ap_kids.(base + j) <- r
        end
      done;
      let r = mk_sub t lv t.ap_kids base in
      let i = hash3 (op_code op) a b land t.ap_mask in
      t.ap_op.(i) <- op_code op;
      t.ap_f.(i) <- a;
      t.ap_g.(i) <- b;
      t.ap_r.(i) <- r;
      r
    end
  end

let apply t op f g = apply_rec t op f g 0

let apply_and t f g = apply t O_and f g
let apply_or t f g = apply t O_or f g
let apply_xor t f g = apply t O_xor f g

let not_ t f = apply_xor t f one

let eval t n assignment =
  let rec go n =
    if n = zero then false
    else if n = one then true
    else
      let lv = t.levels.(n) in
      let j = assignment lv in
      if j < 0 || j >= t.arity.(lv) then invalid_arg "Mdd.eval: value out of domain";
      go (chunk_of t n).(base_of t n + j)
  in
  go n

(* Nonterminal nodes of the cone of [n], bucketed by level, and the size
   of the cone: its nonterminals and the terminals it reaches. Every child
   sits at a strictly greater level than its parent, so iterating buckets
   from the deepest level upward is a bottom-up topological order. The
   discovery order (pop a node, push its unseen children in index order)
   fixes the order within each bucket, and with it the summation order of
   the downward sweep in [probability_with_sensitivities].

   Node ids are dense (below [t.used]), so this walk and [iter_reachable]
   mark them in a [Bytes] and the value tables below are arrays indexed by
   node id: no hashing, nothing kept on the manager between calls. *)
let cone_by_level t n =
  let buckets = Array.make (num_mvars t) [] in
  let seen = Bytes.make t.used '\000' in
  let stack = Int_vec.create () in
  let size = ref 0 in
  let push c =
    if Bytes.get seen c = '\000' then begin
      Bytes.set seen c '\001';
      incr size;
      if not (is_terminal c) then ignore (Int_vec.push stack c)
    end
  in
  push n;
  while Int_vec.length stack > 0 do
    let x = Int_vec.pop stack in
    let lv = t.levels.(x) in
    buckets.(lv) <- x :: buckets.(lv);
    let kids = chunk_of t x and base = base_of t x in
    for j = 0 to t.arity.(lv) - 1 do
      push kids.(base + j)
    done
  done;
  (buckets, !size)

(* Per-call value table indexed by node id, terminals preset. *)
let terminal_values t =
  let value = Array.make t.used 0.0 in
  value.(one) <- 1.0;
  value

let probability t n ~p =
  let value = terminal_values t in
  let buckets, _ = cone_by_level t n in
  for lv = num_mvars t - 1 downto 0 do
    List.iter
      (fun x ->
        let kids = chunk_of t x and base = base_of t x in
        let acc = ref 0.0 in
        for j = 0 to t.arity.(lv) - 1 do
          let pj = p lv j in
          if pj <> 0.0 then acc := !acc +. (pj *. value.(kids.(base + j)))
        done;
        value.(x) <- !acc)
      buckets.(lv)
  done;
  value.(n)

let sweep_counter = Obs.counter "mdd.sweep.runs"

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* A node is scalar when every probability vector of its level holds one
   value over the first [nk] scenarios and every child is a terminal or a
   scalar node: all [nk] entries of its vector would then be computed by
   the same operations on the same values, so it keeps that value once,
   in [sval], and its [vec] slot stays empty. Terminals are scalar. Every
   other node keeps its vector in [vec], and reads a scalar child's value
   where it would have read an entry of that child's vector, so each
   result entry is the bits of the all-vector sweep. *)
let probability_sweep_and_size t n ~nk ~p =
  if nk < 1 then invalid_arg "Mdd.probability_sweep: nk must be positive";
  t.sweeps <- t.sweeps + 1;
  Obs.incr sweep_counter;
  if n = zero then (Array.make nk 0.0, 1)
  else if n = one then (Array.make nk 1.0, 1)
  else begin
    (* Edge-probability vectors, fetched once per (level, value) pair that
       actually occurs in the cone, and whether they are uniform over the
       scenarios. *)
    let pv = Array.make (num_mvars t) [||] and uniform = Array.make (num_mvars t) true in
    let pvec lv =
      if pv.(lv) = [||] then begin
        pv.(lv) <-
          Array.init t.arity.(lv) (fun j ->
              let v = p lv j in
              if Array.length v < nk then
                invalid_arg "Mdd.probability_sweep: probability vector shorter than nk";
              v);
        Array.iter
          (fun v ->
            for k = 1 to nk - 1 do
              if not (same_bits v.(k) v.(0)) then uniform.(lv) <- false
            done)
          pv.(lv)
      end;
      pv.(lv)
    in
    let buckets, size = cone_by_level t n in
    let vec = Array.make t.used [||] and sval = Array.make t.used 0.0 in
    for lv = num_mvars t - 1 downto 0 do
      let vecs = if buckets.(lv) = [] then [||] else pvec lv in
      let d = t.arity.(lv) in
      List.iter
        (fun x ->
          let kids = chunk_of t x and base = base_of t x in
          let scalar = ref uniform.(lv) and j = ref 0 in
          while !scalar && !j < d do
            if Array.length vec.(kids.(base + !j)) > 0 then scalar := false;
            incr j
          done;
          if !scalar then begin
            let acc = ref 0.0 in
            for j = 0 to d - 1 do
              let c = kids.(base + j) in
              if c <> zero then begin
                let pj = vecs.(j).(0) in
                if c = one then acc := !acc +. pj else acc := !acc +. (pj *. sval.(c))
              end
            done;
            sval.(x) <- !acc
          end
          else begin
            let acc = Array.make nk 0.0 in
            for j = 0 to d - 1 do
              let c = kids.(base + j) in
              if c <> zero then begin
                let pj = vecs.(j) in
                let cv : float array = vec.(c) in
                if c = one then
                  for k = 0 to nk - 1 do
                    acc.(k) <- acc.(k) +. pj.(k)
                  done
                else if Array.length cv = 0 then begin
                  let sc = sval.(c) in
                  for k = 0 to nk - 1 do
                    acc.(k) <- acc.(k) +. (pj.(k) *. sc)
                  done
                end
                else
                  for k = 0 to nk - 1 do
                    acc.(k) <- acc.(k) +. (pj.(k) *. cv.(k))
                  done
              end
            done;
            vec.(x) <- acc
          end)
        buckets.(lv)
    done;
    ((if Array.length vec.(n) > 0 then vec.(n) else Array.make nk sval.(n)), size)
  end

let probability_sweep t n ~nk ~p = fst (probability_sweep_and_size t n ~nk ~p)

let probability_with_sensitivities t n ~p =
  let nvars = num_mvars t in
  let buckets, _ = cone_by_level t n in
  (* Upward sweep: value of every node in the cone, bottom level first. *)
  let value = terminal_values t in
  for lv = nvars - 1 downto 0 do
    List.iter
      (fun x ->
        let kids = chunk_of t x and base = base_of t x in
        let acc = ref 0.0 in
        for j = 0 to t.arity.(lv) - 1 do
          acc := !acc +. (p lv j *. value.(kids.(base + j)))
        done;
        value.(x) <- !acc)
      buckets.(lv)
  done;
  let total = value.(n) in
  (* Downward sweep: reach probability of every node (sum over paths of the
     product of edge probabilities), in topological (level) order. *)
  let reach = Array.make t.used 0.0 in
  if not (is_terminal n) then reach.(n) <- 1.0;
  let sens =
    Array.init nvars (fun v -> Array.make t.arity.(v) 0.0)
  in
  for lv = 0 to nvars - 1 do
    List.iter
      (fun x ->
        let r = reach.(x) in
        if r <> 0.0 then begin
          let kids = chunk_of t x and base = base_of t x in
          for j = 0 to t.arity.(lv) - 1 do
            let c = kids.(base + j) in
            sens.(lv).(j) <- sens.(lv).(j) +. (r *. value.(c));
            if not (is_terminal c) then reach.(c) <- reach.(c) +. (r *. p lv j)
          done
        end)
      buckets.(lv)
  done;
  (total, sens)

let iter_reachable t n f =
  let seen = Bytes.make t.used '\000' in
  (* Explicit stack of (node, next-child cursor) pairs, flattened into one
     vector; same postorder as the old recursive walk — children before
     their parent, in index order — without consuming OCaml stack
     proportional to the diagram depth. *)
  let stack = Int_vec.create () in
  let visit n =
    if Bytes.get seen n = '\000' then begin
      Bytes.set seen n '\001';
      if is_terminal n then f n
      else begin
        ignore (Int_vec.push stack n);
        ignore (Int_vec.push stack 0)
      end
    end
  in
  visit n;
  while Int_vec.length stack > 0 do
    let top = Int_vec.length stack - 1 in
    let x = Int_vec.get stack (top - 1) in
    let kids = chunk_of t x and base = base_of t x and d = t.arity.(t.levels.(x)) in
    (* Run over the children seen before, reporting a terminal at its
       first sight, up to the first unseen nonterminal. *)
    let j = ref (Int_vec.get stack top) and next = ref (-1) in
    while !next < 0 && !j < d do
      let c = kids.(base + !j) in
      incr j;
      if Bytes.get seen c = '\000' then begin
        Bytes.set seen c '\001';
        if is_terminal c then f c else next := c
      end
    done;
    if !next >= 0 then begin
      Int_vec.set stack top !j;
      ignore (Int_vec.push stack !next);
      ignore (Int_vec.push stack 0)
    end
    else begin
      ignore (Int_vec.pop stack);
      ignore (Int_vec.pop stack);
      f x
    end
  done

let size t n =
  let c = ref 0 in
  iter_reachable t n (fun _ -> incr c);
  !c

let total_nodes t = t.used

type stats = {
  nodes : int;
  apply_hits : int;
  apply_misses : int;
  apply_cache_slots : int;
  sweeps : int;
}

let stats (t : t) =
  {
    nodes = t.used;
    apply_hits = t.apply_hits;
    apply_misses = t.apply_misses;
    apply_cache_slots = t.ap_mask + 1;
    sweeps = t.sweeps;
  }

let obs_apply_hits = Obs.counter "mdd.apply_cache_hits"
let obs_apply_misses = Obs.counter "mdd.apply_cache_misses"

(* Table-occupancy snapshot at publish time: the unique table's fill and
   the probe length of each stored node (1 + its distance from its home
   slot, the probes a lookup of it takes); the APPLY cache is a linear
   scan of its tag array. *)
let snapshot_occupancy (t : t) =
  let slots = t.umask + 1 in
  Memory.record_occupancy ~name:"mdd.unique" ~used:(t.used - 2) ~capacity:slots;
  let counts = ref (Array.make 8 0) in
  for i = 0 to t.umask do
    if t.utab.(2 * i) >= 0 then begin
      let len = 1 + ((i - t.utab.((2 * i) + 1)) land t.umask) in
      if len >= Array.length !counts then counts := extend !counts (2 * len) 0;
      !counts.(len) <- !counts.(len) + 1
    end
  done;
  Memory.observe_probe_lengths ~name:"mdd.unique" !counts;
  let cache_used = ref 0 in
  Array.iter (fun op -> if op >= 0 then cache_used := !cache_used + 1) t.ap_op;
  Memory.record_occupancy ~name:"mdd.cache" ~used:!cache_used
    ~capacity:(t.ap_mask + 1)

let publish_obs (t : t) =
  if Obs.enabled () then begin
    (* Delta against the last published snapshot, so calling this after
       every build (or several times for one manager) never double-counts. *)
    Obs.add obs_apply_hits (t.apply_hits - t.pub_apply_hits);
    Obs.add obs_apply_misses (t.apply_misses - t.pub_apply_misses);
    t.pub_apply_hits <- t.apply_hits;
    t.pub_apply_misses <- t.apply_misses;
    snapshot_occupancy t
  end

let support t n =
  let nvars = num_mvars t in
  let present = Array.make (nvars + 1) false in
  iter_reachable t n (fun x -> present.(t.levels.(x)) <- true);
  let acc = ref [] in
  for v = nvars - 1 downto 0 do
    if present.(v) then acc := v :: !acc
  done;
  !acc

let to_dot t n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph romdd {\n";
  Buffer.add_string buf "  t0 [label=\"0\", shape=box];\n";
  Buffer.add_string buf "  t1 [label=\"1\", shape=box];\n";
  let name x = if x = zero then "t0" else if x = one then "t1" else Printf.sprintf "n%d" x in
  iter_reachable t n (fun x ->
      if not (is_terminal x) then begin
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\"];\n" x t.specs.(t.levels.(x)).name);
        (* Group edges by destination to render value-set labels like the
           paper's Fig. 2. *)
        let dests = Hashtbl.create 8 in
        Array.iteri
          (fun j c ->
            let l = Option.value ~default:[] (Hashtbl.find_opt dests c) in
            Hashtbl.replace dests c (j :: l))
          (children t x);
        Hashtbl.iter
          (fun c values ->
            let label =
              String.concat "," (List.map string_of_int (List.rev values))
            in
            Buffer.add_string buf
              (Printf.sprintf "  n%d -> %s [label=\"%s\"];\n" x (name c) label))
          dests
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
