(* ROBDD engine with complement (attributed) edges.

   A node handle packs a physical slot index and a complement bit:
   [handle = slot lsl 1 lor cbit]. Slot 0 is the single terminal (the
   constant TRUE sink), so [one = 0] and [zero = 1] — negation is just
   [lxor 1], O(1) and allocation-free. Canonicity: the else-edge stored in
   a slot is always regular (complement bit 0); [mk] normalizes
   (lv ? hi : ¬x) into ¬(lv ? ¬hi : x), pushing the complement to the
   returned handle. The then-edge and any handle held by a caller may be
   complemented. *)

type node = int

exception Node_limit_exceeded
exception Cpu_limit_exceeded

type t = {
  nvars : int;
  node_limit : int;
  cpu_deadline : float; (* Sys.time () value after which mk raises; infinity = off *)
  mutable creations_until_clock_check : int;
  (* Variable <-> level permutation. [level] entries in the node store are
     LEVELS (depth in the diagram); the variable tested at a level is
     [var_at_level]. Both arrays start as the identity and only dynamic
     reordering changes them. *)
  mutable var_at_level : int array;
  mutable level_of_var : int array;
  (* Group id per variable ([||] = every variable is its own group).
     Sifting moves whole groups as units so grouped variables stay
     contiguous. *)
  mutable group_of_var : int array;
  (* Node store: parallel arrays indexed by physical slot. Slot 0 is the
     TRUE sink. [level] is [-1] for freed slots. [low]/[high] hold child
     handles — [low] always regular by the canonicity invariant. [next]
     chains both hash buckets and the free list. *)
  mutable level : int array;
  mutable low : int array;
  mutable high : int array;
  mutable rc : int array;
  mutable next : int array;
  mutable used : int; (* slots handed out, including freed ones *)
  mutable free_head : int;
  (* Unique table *)
  mutable buckets : int array;
  mutable bucket_mask : int;
  (* Computed cache, direct-mapped, shared by ITE and the specialized
     AND/OR entry points (AND entries use the reserved third key below).
     It starts at [2^initial_cache_bits] lines and doubles with the node
     store (see [grow_cache]) up to [cache_max] lines. *)
  mutable cache_f : int array;
  mutable cache_g : int array;
  mutable cache_h : int array;
  mutable cache_r : int array;
  mutable cache_mask : int;
  (* A miss doubles the cache once the store holds more nodes than this:
     the line count, or [max_int] once the cache has [cache_max] lines. *)
  mutable cache_grow_at : int;
  cache_max : int;
  (* Pending slots of a [kill] or [resurrect] cascade, reused across
     calls so a cascade allocates nothing per node. *)
  mutable cascade : int array;
  (* Statistics *)
  mutable alive_count : int;
  mutable dead_count : int;
  mutable peak : int;
  mutable created : int;
  mutable gc_runs : int;
  mutable reclaimed : int;
  mutable unique_hits : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable and_or_fast_hits : int;
  mutable reorder_runs : int;
  mutable reorder_swaps : int;
  mutable reorder_aborts : int;
  (* Last values pushed to the Obs registry; [publish_obs] adds only the
     delta since, so repeated publishes never double-count. *)
  mutable pub_created : int;
  mutable pub_unique_hits : int;
  mutable pub_cache_hits : int;
  mutable pub_cache_misses : int;
  mutable pub_and_or_fast_hits : int;
  mutable pub_gc_runs : int;
  mutable pub_reclaimed : int;
  mutable pub_reorder_runs : int;
  mutable pub_reorder_swaps : int;
  mutable pub_reorder_aborts : int;
}

let one = 0
let zero = 1
let is_terminal n = n < 2
let is_complemented n = n land 1 = 1
let regular n = n land -2
let num_vars m = m.nvars
let handle_bound m = m.used lsl 1

let initial_capacity = 1024
let initial_buckets = 1 lsl 10
let initial_cache_bits = 12

let create ?(node_limit = max_int) ?cpu_limit ?(cache_bits = 18) ~num_vars () =
  if num_vars < 0 then invalid_arg "Manager.create: negative num_vars";
  if cache_bits < 1 || cache_bits > 28 then
    invalid_arg "Manager.create: cache_bits out of range";
  let cap = initial_capacity in
  let lines = 1 lsl min cache_bits initial_cache_bits in
  let cache_max = 1 lsl cache_bits in
  let m =
    {
      nvars = num_vars;
      node_limit;
      cpu_deadline =
        (match cpu_limit with None -> infinity | Some s -> Sys.time () +. s);
      creations_until_clock_check = 65536;
      var_at_level = Array.init num_vars (fun i -> i);
      level_of_var = Array.init num_vars (fun i -> i);
      group_of_var = [||];
      level = Array.make cap (-1);
      low = Array.make cap 0;
      high = Array.make cap 0;
      rc = Array.make cap 0;
      next = Array.make cap (-1);
      used = 1;
      free_head = -1;
      buckets = Array.make initial_buckets (-1);
      bucket_mask = initial_buckets - 1;
      cache_f = Array.make lines (-1);
      cache_g = Array.make lines 0;
      cache_h = Array.make lines 0;
      cache_r = Array.make lines 0;
      cache_mask = lines - 1;
      cache_grow_at = (if lines < cache_max then lines else max_int);
      cache_max;
      cascade = Array.make 64 0;
      alive_count = 0;
      dead_count = 0;
      peak = 0;
      created = 0;
      gc_runs = 0;
      reclaimed = 0;
      unique_hits = 0;
      cache_hits = 0;
      cache_misses = 0;
      and_or_fast_hits = 0;
      reorder_runs = 0;
      reorder_swaps = 0;
      reorder_aborts = 0;
      pub_created = 0;
      pub_unique_hits = 0;
      pub_cache_hits = 0;
      pub_cache_misses = 0;
      pub_and_or_fast_hits = 0;
      pub_gc_runs = 0;
      pub_reclaimed = 0;
      pub_reorder_runs = 0;
      pub_reorder_swaps = 0;
      pub_reorder_aborts = 0;
    }
  in
  (* The sink: level below every variable, self-children, immortal. *)
  m.level.(0) <- num_vars;
  m.low.(0) <- 0;
  m.high.(0) <- 0;
  m.rc.(0) <- max_int;
  m

let level m n = m.level.(n lsr 1)

(* Child accessors apply the handle's complement parity, so the returned
   handles denote the true else/then cofactors of the *function* the handle
   stands for — consumers traverse complemented diagrams transparently. *)
let low m n =
  if is_terminal n then invalid_arg "Manager.low: terminal node";
  m.low.(n lsr 1) lxor (n land 1)

let high m n =
  if is_terminal n then invalid_arg "Manager.high: terminal node";
  m.high.(n lsr 1) lxor (n land 1)

let var_at_level m lv =
  if lv < 0 || lv >= m.nvars then invalid_arg "Manager.var_at_level: out of range";
  m.var_at_level.(lv)

let level_of_var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Manager.level_of_var: out of range";
  m.level_of_var.(v)

let current_order m = Array.copy m.var_at_level

(* The variable tested by a (non-terminal) node — distinct from [level]
   once dynamic reordering has permuted the order. *)
let var_of m n =
  if is_terminal n then invalid_arg "Manager.var_of: terminal node";
  m.var_at_level.(m.level.(n lsr 1))

(* --- observability ------------------------------------------------------ *)

module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Memory = Socy_obs.Memory
module Json = Socy_obs.Json
module Int_vec = Socy_util.Int_vec

(* Gauges are process-wide; with several managers alive they interleave
   samples, which is the (documented) intended reading: total engine load. *)
let live_gauge = Obs.gauge "bdd.live_nodes"
let peak_gauge = Obs.gauge "bdd.peak_nodes"

let sample_gauges m =
  Obs.set live_gauge (float_of_int m.alive_count);
  Obs.set peak_gauge (float_of_int m.peak)

let obs_created = Obs.counter "bdd.created"
let obs_unique_hits = Obs.counter "bdd.unique_hits"
let obs_cache_hits = Obs.counter "bdd.ite_cache_hits"
let obs_cache_misses = Obs.counter "bdd.ite_cache_misses"
let obs_and_or_fast_hits = Obs.counter "bdd.and_or_fast_hits"
let obs_gc_runs = Obs.counter "bdd.gc_runs"
let obs_reclaimed = Obs.counter "bdd.gc_reclaimed"
let obs_reorder_runs = Obs.counter "bdd.reorder.runs"
let obs_reorder_swaps = Obs.counter "bdd.reorder.swaps"
let obs_reorder_aborts = Obs.counter "bdd.reorder.aborts"

(* --- reference counting ------------------------------------------------ *)

(* Reference counts live on physical slots; the complement bit of a handle
   is irrelevant to ownership (¬f is the same slot as f). *)

let bump_alive m =
  if m.alive_count > m.peak then m.peak <- m.alive_count

(* The cascades below keep their pending child slots on [m.cascade], the
   else-child on top, so a deep cone costs no OCaml stack and no
   allocation. [push_children m top s] pushes the children of slot [s]
   above [top] and returns the new top. The two cascades never nest. *)
let push_children m top s =
  if top + 2 > Array.length m.cascade then begin
    let b = Array.make (2 * Array.length m.cascade) 0 in
    Array.blit m.cascade 0 b 0 top;
    m.cascade <- b
  end;
  m.cascade.(top) <- m.high.(s) lsr 1;
  m.cascade.(top + 1) <- m.low.(s) lsr 1;
  top + 2

(* Resurrection: slot [s] was dead and just went 0 -> 1; re-acquire the
   children it still points to, down the dead part of the cone. *)
let resurrect m s =
  m.alive_count <- m.alive_count + 1;
  m.dead_count <- m.dead_count - 1;
  bump_alive m;
  let top = ref (push_children m 0 s) in
  while !top > 0 do
    decr top;
    let x = m.cascade.(!top) in
    if x > 0 then begin
      let c = m.rc.(x) in
      m.rc.(x) <- c + 1;
      if c = 0 then begin
        m.alive_count <- m.alive_count + 1;
        m.dead_count <- m.dead_count - 1;
        bump_alive m;
        top := push_children m !top x
      end
    end
  done

let ref_ m n =
  let s = n lsr 1 in
  if s > 0 then begin
    let c = m.rc.(s) in
    m.rc.(s) <- c + 1;
    if c = 0 then resurrect m s
  end

(* Dual of [resurrect]: slot [s] just went 1 -> 0; release its cone. *)
let kill m s =
  m.alive_count <- m.alive_count - 1;
  m.dead_count <- m.dead_count + 1;
  let top = ref (push_children m 0 s) in
  while !top > 0 do
    decr top;
    let x = m.cascade.(!top) in
    if x > 0 then begin
      let c = m.rc.(x) in
      if c <= 0 then invalid_arg "Manager.deref: reference count underflow";
      m.rc.(x) <- c - 1;
      if c = 1 then begin
        m.alive_count <- m.alive_count - 1;
        m.dead_count <- m.dead_count + 1;
        top := push_children m !top x
      end
    end
  done

let deref m n =
  let s = n lsr 1 in
  if s > 0 then begin
    let c = m.rc.(s) in
    if c <= 0 then invalid_arg "Manager.deref: reference count underflow";
    m.rc.(s) <- c - 1;
    if c = 1 then kill m s
  end

(* --- unique table ------------------------------------------------------ *)

(* Sequential multiply-xorshift chain (splitmix-style): each word is folded
   into the running state between avalanche rounds, so single-bit changes in
   any of the three keys diffuse across the whole hash. The former xor of
   three products was linear in its inputs and left the direct-mapped
   computed cache with systematic collisions (hit rate stuck at ~42–45%
   on the paper's MS rows). Constants are 62-bit primes-ish from the
   splitmix64/xxhash family, truncated to fit OCaml's 63-bit int. *)
let hash3 a b c =
  let h = a * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 31) lxor b) * 0x165667B19E3779F9 in
  let h = (h lxor (h lsr 29) lxor c) * 0x27D4EB2F165667C5 in
  (h lxor (h lsr 32)) land max_int

let grow_store m =
  let cap = Array.length m.level in
  let ncap = 2 * cap in
  Trace.instant "bdd.grow" ~args:[ ("slots", Json.Int ncap) ];
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  m.level <- extend m.level (-1);
  m.low <- extend m.low 0;
  m.high <- extend m.high 0;
  m.rc <- extend m.rc 0;
  m.next <- extend m.next (-1)

let rehash m =
  let nbuckets = 2 * Array.length m.buckets in
  Trace.instant "bdd.rehash" ~args:[ ("buckets", Json.Int nbuckets) ];
  m.buckets <- Array.make nbuckets (-1);
  m.bucket_mask <- nbuckets - 1;
  for i = 1 to m.used - 1 do
    if m.level.(i) >= 0 then begin
      let b = hash3 m.level.(i) m.low.(i) m.high.(i) land m.bucket_mask in
      m.next.(i) <- m.buckets.(b);
      m.buckets.(b) <- i
    end
  done

let alloc_slot m =
  if m.free_head >= 0 then begin
    let slot = m.free_head in
    m.free_head <- m.next.(slot);
    slot
  end
  else begin
    if m.used = Array.length m.level then grow_store m;
    let slot = m.used in
    m.used <- m.used + 1;
    slot
  end

(* [mk] returns an owned reference to the canonical handle for
   (lv ? hi : lo). The canonicity rule: a stored else-edge is regular. A
   complemented [lo] is normalized by complementing both children and
   returning the complement of the stored node — one physical node serves
   both polarities of the function. *)
let mk m lv lo hi =
  if lo = hi then begin
    ref_ m lo;
    lo
  end
  else begin
    let cb = lo land 1 in
    let lo = lo lxor cb and hi = hi lxor cb in
    let b = hash3 lv lo hi land m.bucket_mask in
    let i = ref m.buckets.(b) in
    while !i >= 0 && not (m.level.(!i) = lv && m.low.(!i) = lo && m.high.(!i) = hi) do
      i := m.next.(!i)
    done;
    let existing = !i in
    if existing >= 0 then begin
      m.unique_hits <- m.unique_hits + 1;
      ref_ m (existing lsl 1);
      (existing lsl 1) lor cb
    end
    else begin
      if m.alive_count >= m.node_limit then raise Node_limit_exceeded;
      m.creations_until_clock_check <- m.creations_until_clock_check - 1;
      if m.creations_until_clock_check <= 0 then begin
        m.creations_until_clock_check <- 65536;
        if Sys.time () > m.cpu_deadline then raise Cpu_limit_exceeded;
        (* Piggyback the periodic sampling of the live/peak gauges on the
           clock check so the hot path gains no extra test. *)
        if Socy_obs.Obs.enabled () then sample_gauges m
      end;
      let slot = alloc_slot m in
      m.level.(slot) <- lv;
      m.low.(slot) <- lo;
      m.high.(slot) <- hi;
      m.rc.(slot) <- 1;
      m.next.(slot) <- m.buckets.(b);
      m.buckets.(b) <- slot;
      m.alive_count <- m.alive_count + 1;
      m.created <- m.created + 1;
      bump_alive m;
      ref_ m lo;
      ref_ m hi;
      if m.alive_count + m.dead_count > 2 * Array.length m.buckets then rehash m;
      (slot lsl 1) lor cb
    end
  end

(* var and nvar share one physical slot: the stored node is ¬x (regular),
   x is its complemented handle. *)
let var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Manager.var: out of range";
  mk m m.level_of_var.(v) zero one

let nvar m v =
  if v < 0 || v >= m.nvars then invalid_arg "Manager.nvar: out of range";
  mk m m.level_of_var.(v) one zero

let not_ m f =
  ref_ m f;
  f lxor 1

(* --- computed cache ------------------------------------------------------ *)

(* Double the computed cache, re-inserting every filled line under the new
   mask. Called from the miss branch of [ite] / [and_] once the store holds
   more nodes (live and dead) than the cache has lines, so a small diagram
   keeps a small, CPU-cache-resident table and a large one still reaches
   [cache_max] lines.

   Results cannot depend on the cache size. No cache line holds a
   reference, so the diagram built is the same whatever the cache
   remembers: only hit and miss counts change. An ITE/AND call that was
   already descending when the cache grew stores through the line index it
   took at lookup, under the old mask, and that is safe: the index is still
   in range, because the table only grows, and every lookup compares the
   full key (f, g, h, or the AND code), so a line whose key hashes
   elsewhere can only miss, never return a wrong result. [collect] and
   [reorder_end] flush whatever arrays are current. *)
let grow_cache m =
  let n = 2 * (m.cache_mask + 1) in
  let mask = n - 1 in
  let f = Array.make n (-1) and g = Array.make n 0 in
  let h = Array.make n 0 and r = Array.make n 0 in
  for i = 0 to m.cache_mask do
    let k = m.cache_f.(i) in
    if k >= 0 then begin
      let j = hash3 k m.cache_g.(i) m.cache_h.(i) land mask in
      f.(j) <- k;
      g.(j) <- m.cache_g.(i);
      h.(j) <- m.cache_h.(i);
      r.(j) <- m.cache_r.(i)
    end
  done;
  m.cache_f <- f;
  m.cache_g <- g;
  m.cache_h <- h;
  m.cache_r <- r;
  m.cache_mask <- mask;
  m.cache_grow_at <- (if n < m.cache_max then n else max_int)

(* --- ITE ---------------------------------------------------------------- *)

(* The cofactors of [h] at level [lv]: [h] itself when it does not test
   [lv]. *)
let high_at m lv h =
  let s = h lsr 1 in
  if m.level.(s) = lv then m.high.(s) lxor (h land 1) else h

let low_at m lv h =
  let s = h lsr 1 in
  if m.level.(s) = lv then m.low.(s) lxor (h land 1) else h

(* Recursive ITE. Every call that recurses descends at least one level,
   so the depth is at most the number of variables.

   Complement-aware normalization (Brace–Rudell standard triples):
     terminal rules    ite(1,g,h)=g  ite(0,g,h)=h  ite(f,g,g)=g
                       ite(f,1,0)=f  ite(f,0,1)=¬f
     operand folding   g∈{f,¬f} → {1,0};  h∈{f,¬f} → {0,1}
     commutative swap  ite(f,1,h)=ite(h,1,f)     ite(f,g,0)=ite(g,f,0)
                       ite(f,0,h)=ite(¬h,0,¬f)   ite(f,g,1)=ite(¬g,¬f,1)
                       ite(f,g,¬g)=ite(g,f,¬f)   (applied when it lowers
                       the regular handle of the first operand)
     first-arg polarity  ite(¬f,g,h)=ite(f,h,g)
     output polarity     ite(f,¬g,h)=¬ite(f,g,¬h)  — the complement moves
                       to the result, so both polarities of a call share a
                       single computed-cache line.
   A miss takes its cache line index at lookup, builds the then-branch,
   then the else-branch, then the node, and fills that line. *)
let rec ite m f g h =
  if f = one then begin
    ref_ m g;
    g
  end
  else if f = zero then begin
    ref_ m h;
    h
  end
  else begin
    let g = if g = f then one else if g = f lxor 1 then zero else g in
    let h = if h = f then zero else if h = f lxor 1 then one else h in
    if g = h then begin
      ref_ m g;
      g
    end
    else if g = one && h = zero then begin
      ref_ m f;
      f
    end
    else if g = zero && h = one then begin
      ref_ m f;
      f lxor 1
    end
    else if g = one then
      if h land -2 < f land -2 then ite_std m h one f else ite_std m f g h
    else if h = zero then
      if g land -2 < f land -2 then ite_std m g f zero else ite_std m f g h
    else if g = zero then
      if h land -2 < f land -2 then ite_std m (h lxor 1) zero (f lxor 1)
      else ite_std m f g h
    else if h = one then
      if g land -2 < f land -2 then ite_std m (g lxor 1) (f lxor 1) one
      else ite_std m f g h
    else if g = h lxor 1 && g land -2 < f land -2 then ite_std m g f (f lxor 1)
    else ite_std m f g h
  end

(* First-argument polarity, on a swapped triple. *)
and ite_std m f g h = if f land 1 = 1 then ite_key m (f lxor 1) h g else ite_key m f g h

(* Output polarity, which completes the key (f, g, h), then the
   computed cache and the recursion. [f] is regular. *)
and ite_key m f g h =
  let neg = g land 1 in
  let g = g lxor neg and h = h lxor neg in
  let ci = hash3 f g h land m.cache_mask in
  if m.cache_f.(ci) = f && m.cache_g.(ci) = g && m.cache_h.(ci) = h then begin
    let cached = m.cache_r.(ci) in
    m.cache_hits <- m.cache_hits + 1;
    ref_ m cached;
    cached lxor neg
  end
  else begin
    m.cache_misses <- m.cache_misses + 1;
    let ci =
      if m.alive_count + m.dead_count > m.cache_grow_at then begin
        grow_cache m;
        hash3 f g h land m.cache_mask
      end
      else ci
    in
    let lf = m.level.(f lsr 1) and lg = m.level.(g lsr 1) and lh = m.level.(h lsr 1) in
    let lv = if lf <= lg then lf else lg in
    let lv = if lv <= lh then lv else lh in
    let t = ite m (high_at m lv f) (high_at m lv g) (high_at m lv h) in
    let e = ite m (low_at m lv f) (low_at m lv g) (low_at m lv h) in
    let r = mk m lv e t in
    deref m t;
    deref m e;
    m.cache_f.(ci) <- f;
    m.cache_g.(ci) <- g;
    m.cache_h.(ci) <- h;
    m.cache_r.(ci) <- r;
    r lxor neg
  end

(* --- specialized AND / OR ----------------------------------------------- *)

(* Reserved third cache key for AND entries: no ITE triple can carry it
   (handles are nonnegative, empty cache lines are marked by key -1). *)
let and_code = -2

(* Recursive AND, with the same depth bound and miss sequence as [ite].
   Conjunction needs no triple normalization: the only canonical work is
   sorting the commutative pair, and the terminal/absorption/complement
   rules below resolve without touching the computed cache. OR is derived
   by De Morgan with free complements, and therefore shares the very same
   cache lines: or(f,g) = ¬and(¬f,¬g). *)
let rec and_ m f g =
  if f = g || g = one then begin
    m.and_or_fast_hits <- m.and_or_fast_hits + 1;
    ref_ m f;
    f
  end
  else if f = one then begin
    m.and_or_fast_hits <- m.and_or_fast_hits + 1;
    ref_ m g;
    g
  end
  else if f = zero || g = zero || f = g lxor 1 then begin
    m.and_or_fast_hits <- m.and_or_fast_hits + 1;
    zero
  end
  else if f < g then and_key m f g
  else and_key m g f

(* The sorted pair [a < b], neither terminal. *)
and and_key m a b =
  let ci = hash3 a b and_code land m.cache_mask in
  if m.cache_f.(ci) = a && m.cache_g.(ci) = b && m.cache_h.(ci) = and_code then begin
    let cached = m.cache_r.(ci) in
    m.cache_hits <- m.cache_hits + 1;
    ref_ m cached;
    cached
  end
  else begin
    m.cache_misses <- m.cache_misses + 1;
    let ci =
      if m.alive_count + m.dead_count > m.cache_grow_at then begin
        grow_cache m;
        hash3 a b and_code land m.cache_mask
      end
      else ci
    in
    let la = m.level.(a lsr 1) and lb = m.level.(b lsr 1) in
    let lv = if la <= lb then la else lb in
    let t = and_ m (high_at m lv a) (high_at m lv b) in
    let e = and_ m (low_at m lv a) (low_at m lv b) in
    let r = mk m lv e t in
    deref m t;
    deref m e;
    m.cache_f.(ci) <- a;
    m.cache_g.(ci) <- b;
    m.cache_h.(ci) <- and_code;
    m.cache_r.(ci) <- r;
    r
  end

let or_ m f g = and_ m (f lxor 1) (g lxor 1) lxor 1

(* ¬g is a free handle complement, so XOR is a single ITE call. *)
let xor_ m f g = ite m f (g lxor 1) g

(* Parity-adjusted child handles, shared by the traversals below. *)
let lo_of m h = m.low.(h lsr 1) lxor (h land 1)
let hi_of m h = m.high.(h lsr 1) lxor (h land 1)

(* --- read-only analyses -------------------------------------------------- *)

(* Physical-node traversal: the complement bit is dropped, every reachable
   slot is visited exactly once (as its regular handle), children before
   parents, low before high. This is the "number of nodes" convention of
   the paper under complement edges: ¬f shares every slot with f.

   Slots are dense (below [m.used]), so the walks mark them in a [Bytes]
   and keep their explicit stacks in an [Int_vec]: no hashing, O(used)
   bytes per walk. Here a stack frame packs [slot lsl 2 lor stage], stage
   0 = descend low, 1 = descend high, 2 = report. *)
let iter_reachable m n f =
  let seen = Bytes.make m.used '\000' in
  let stack = Int_vec.create () in
  let visit h =
    let s = h lsr 1 in
    if Bytes.get seen s = '\000' then begin
      Bytes.set seen s '\001';
      if s = 0 then f 0 else ignore (Int_vec.push stack (s lsl 2))
    end
  in
  visit n;
  while Int_vec.length stack > 0 do
    let top = Int_vec.length stack - 1 in
    let fr = Int_vec.get stack top in
    let s = fr lsr 2 in
    match fr land 3 with
    | 0 ->
        Int_vec.set stack top (fr + 1);
        visit m.low.(s)
    | 1 ->
        Int_vec.set stack top (fr + 1);
        visit m.high.(s)
    | _ ->
        ignore (Int_vec.pop stack);
        f (s lsl 1)
  done

let size_multi m roots =
  let seen = Bytes.make m.used '\000' in
  let stack = Int_vec.create () in
  let count = ref 0 in
  let visit h =
    let s = h lsr 1 in
    if Bytes.get seen s = '\000' then begin
      Bytes.set seen s '\001';
      incr count;
      if s <> 0 then ignore (Int_vec.push stack s)
    end
  in
  List.iter
    (fun n ->
      visit n;
      while Int_vec.length stack > 0 do
        let s = Int_vec.pop stack in
        visit m.low.(s);
        visit m.high.(s)
      done)
    roots;
  !count

let size m n = size_multi m [ n ]

let eval m n assignment =
  let rec go n =
    if n = zero then false
    else if n = one then true
    else if assignment m.var_at_level.(m.level.(n lsr 1)) then go (hi_of m n)
    else go (lo_of m n)
  in
  go n

let probability m n ~p =
  (* Bottom-up in [iter_reachable]'s postorder, so both children of a slot
     are valued before it. Values are stored per slot for the *regular*
     function; reading through a complemented edge takes 1 - v, which makes
     P(f) + P(¬f) = 1 exact by construction. Slot 0 is the TRUE sink. *)
  let value = Array.make m.used 1.0 in
  let handle_value h =
    let v = value.(h lsr 1) in
    if h land 1 = 1 then 1.0 -. v else v
  in
  iter_reachable m n (fun x ->
      let s = x lsr 1 in
      if s <> 0 then begin
        let pv = p m.var_at_level.(m.level.(s)) in
        value.(s) <-
          (pv *. handle_value m.high.(s))
          +. ((1.0 -. pv) *. handle_value m.low.(s))
      end);
  handle_value n

let support m n =
  let present = Array.make m.nvars false in
  iter_reachable m n (fun x ->
      if not (is_terminal x) then
        present.(m.var_at_level.(m.level.(x lsr 1))) <- true);
  let acc = ref [] in
  for v = m.nvars - 1 downto 0 do
    if present.(v) then acc := v :: !acc
  done;
  !acc

(* --- garbage collection -------------------------------------------------- *)

let collect m =
  (* Rebuild the unique table keeping only referenced slots; freed slots go
     to the free list. The computed cache may point at reclaimed slots, so
     flush it. *)
  let reclaimed0 = m.reclaimed in
  Array.fill m.buckets 0 (Array.length m.buckets) (-1);
  for i = 1 to m.used - 1 do
    if m.level.(i) >= 0 then
      if m.rc.(i) > 0 then begin
        let b = hash3 m.level.(i) m.low.(i) m.high.(i) land m.bucket_mask in
        m.next.(i) <- m.buckets.(b);
        m.buckets.(b) <- i
      end
      else begin
        m.level.(i) <- -1;
        m.next.(i) <- m.free_head;
        m.free_head <- i;
        m.reclaimed <- m.reclaimed + 1
      end
  done;
  m.dead_count <- 0;
  Array.fill m.cache_f 0 (Array.length m.cache_f) (-1);
  m.gc_runs <- m.gc_runs + 1;
  Trace.instant "bdd.gc"
    ~args:
      [
        ("reclaimed", Json.Int (m.reclaimed - reclaimed0));
        ("alive", Json.Int m.alive_count);
      ];
  if Obs.enabled () then sample_gauges m

(* --- dynamic reordering (Rudell sifting) --------------------------------- *)

(* In-place adjacent-level swap: every physical slot keeps denoting the
   same function with the same polarity, so external handles (including
   the compiler's per-gate table) survive any amount of reordering. The
   node store's [level] field keeps storing LEVELS; only the
   var_at_level/level_of_var permutation records which variable a level
   tests.

   Discipline while a reorder is in progress:
   - no dead nodes: [reorder_begin] collects, and [reorder_deref] frees
     a slot the moment its refcount hits zero (deferred to the end of the
     current swap so sibling loops never see recycled slots);
   - the unique table is never rehashed mid-swap ([mk_reorder] skips the
     load-factor trigger): levels being swapped are transiently unhooked
     and a rehash would re-chain them with stale keys. The trigger is
     re-checked between swaps;
   - [mk_reorder] bypasses the node budget and the cpu deadline — a swap
     is atomic; budgets are enforced at swap boundaries by the sift
     driver (graceful abort) and [set_order] (raises). *)

let bucket_insert m s =
  let b = hash3 m.level.(s) m.low.(s) m.high.(s) land m.bucket_mask in
  m.next.(s) <- m.buckets.(b);
  m.buckets.(b) <- s

(* Unhook [s] from its hash chain; tolerates a slot that is not hooked
   (swaps unhook whole levels up front, deaths may revisit them). *)
let bucket_remove m s =
  let b = hash3 m.level.(s) m.low.(s) m.high.(s) land m.bucket_mask in
  if m.buckets.(b) = s then m.buckets.(b) <- m.next.(s)
  else begin
    let p = ref m.buckets.(b) in
    while !p >= 0 && m.next.(!p) <> s do
      p := m.next.(!p)
    done;
    if !p >= 0 then m.next.(!p) <- m.next.(s)
  end

(* Tiny growable int vector (Socy_util.Int_vec has no reset). *)
type lvec = { mutable la : int array; mutable ln : int }

let lv_make () = { la = [||]; ln = 0 }

let lv_push v s =
  if v.ln = Array.length v.la then begin
    let b = Array.make (max 8 (2 * v.ln)) 0 in
    Array.blit v.la 0 b 0 v.ln;
    v.la <- b
  end;
  v.la.(v.ln) <- s;
  v.ln <- v.ln + 1

(* Reorder context: per-level candidate slot lists (append-only, possibly
   stale — a listed slot may have died or moved levels), a generation
   stamp per slot to deduplicate when a level is consumed, and the slots
   that died during the current swap (physically freed at its end). *)
type rctx = {
  rl : lvec array;
  mutable stamp : int array;
  mutable gen : int;
  dead : lvec;
}

(* Exact live-slot list for level [lv]: filters stale entries (freed or
   relocated slots) and deduplicates via the generation stamp. *)
let take_level m ctx lv =
  let v = ctx.rl.(lv) in
  ctx.gen <- ctx.gen + 1;
  let g = ctx.gen in
  let out = lv_make () in
  if Array.length ctx.stamp < Array.length m.level then begin
    (* the store grew since the context was built *)
    let b = Array.make (Array.length m.level) 0 in
    Array.blit ctx.stamp 0 b 0 (Array.length ctx.stamp);
    ctx.stamp <- b
  end;
  for k = 0 to v.ln - 1 do
    let s = v.la.(k) in
    if m.level.(s) = lv && ctx.stamp.(s) <> g then begin
      ctx.stamp.(s) <- g;
      lv_push out s
    end
  done;
  out

(* [mk] restricted to reorder use: no computed cache, no budget/clock
   checks, no rehash; fresh slots are recorded in the level index. *)
let mk_reorder m ctx lv lo hi =
  if lo = hi then begin
    ref_ m lo;
    lo
  end
  else begin
    let cb = lo land 1 in
    let lo = lo lxor cb and hi = hi lxor cb in
    let b = hash3 lv lo hi land m.bucket_mask in
    let rec find i =
      if i < 0 then -1
      else if m.level.(i) = lv && m.low.(i) = lo && m.high.(i) = hi then i
      else find m.next.(i)
    in
    let existing = find m.buckets.(b) in
    if existing >= 0 then begin
      m.unique_hits <- m.unique_hits + 1;
      ref_ m (existing lsl 1);
      (existing lsl 1) lor cb
    end
    else begin
      let slot = alloc_slot m in
      m.level.(slot) <- lv;
      m.low.(slot) <- lo;
      m.high.(slot) <- hi;
      m.rc.(slot) <- 1;
      m.next.(slot) <- m.buckets.(b);
      m.buckets.(b) <- slot;
      m.alive_count <- m.alive_count + 1;
      m.created <- m.created + 1;
      bump_alive m;
      ref_ m lo;
      ref_ m hi;
      if Array.length ctx.stamp <= slot then begin
        let b = Array.make (Array.length m.level) 0 in
        Array.blit ctx.stamp 0 b 0 (Array.length ctx.stamp);
        ctx.stamp <- b
      end;
      lv_push ctx.rl.(lv) slot;
      (slot lsl 1) lor cb
    end
  end

(* Deref during reorder: a slot whose count hits zero is unhooked and
   queued for physical reclamation at the end of the current swap — the
   no-dead-nodes invariant that keeps per-order sizes canonical. *)
let reorder_deref m ctx n0 =
  let work = ref [ n0 lsr 1 ] in
  let rec drain () =
    match !work with
    | [] -> ()
    | s :: rest ->
        work := rest;
        if s > 0 then begin
          let c = m.rc.(s) in
          m.rc.(s) <- c - 1;
          if c = 1 then begin
            bucket_remove m s;
            m.alive_count <- m.alive_count - 1;
            lv_push ctx.dead s;
            work := (m.low.(s) lsr 1) :: (m.high.(s) lsr 1) :: !work
          end
        end;
        drain ()
  in
  drain ()

let flush_dead m ctx =
  for k = 0 to ctx.dead.ln - 1 do
    let s = ctx.dead.la.(k) in
    m.level.(s) <- -1;
    m.next.(s) <- m.free_head;
    m.free_head <- s;
    m.reclaimed <- m.reclaimed + 1
  done;
  ctx.dead.ln <- 0

(* Swap levels [i] and [i+1] (variables X above Y become Y above X).
   Writing X-nodes in place — new children, same slot — is what keeps
   external handles valid. Else-edge canonicity survives because the new
   stored else-edge mk(i+1, f00, f10) has a regular [lo] cofactor (f00
   descends a stored — hence regular — else edge), and [mk] of a regular
   [lo] returns a regular handle. *)
let swap_adjacent m ctx i =
  let li = take_level m ctx i in
  let li1 = take_level m ctx (i + 1) in
  ctx.rl.(i) <- lv_make ();
  ctx.rl.(i + 1) <- lv_make ();
  for k = 0 to li.ln - 1 do
    bucket_remove m li.la.(k)
  done;
  for k = 0 to li1.ln - 1 do
    bucket_remove m li1.la.(k)
  done;
  (* X-nodes not touching Y keep their fields and just sink one level;
     hooking them first lets the dependent rewrites share them. A child of
     an X-node can never be another X-node (levels are strict), so the
     classification is stable while this loop relabels. *)
  let deps = lv_make () in
  for k = 0 to li.ln - 1 do
    let s = li.la.(k) in
    if m.level.(m.low.(s) lsr 1) = i + 1 || m.level.(m.high.(s) lsr 1) = i + 1
    then lv_push deps s
    else begin
      m.level.(s) <- i + 1;
      bucket_insert m s;
      lv_push ctx.rl.(i + 1) s
    end
  done;
  (* Dependent X-nodes: f = X ? f1 : f0 with a Y-cofactor; rebuild as
     Y ? (X ? f11 : f01) : (X ? f10 : f00) in the same slot. *)
  for k = 0 to deps.ln - 1 do
    let s = deps.la.(k) in
    let f0 = m.low.(s) and f1 = m.high.(s) in
    let s0 = f0 lsr 1 and s1 = f1 lsr 1 in
    let f00, f01 =
      if m.level.(s0) = i + 1 then (m.low.(s0), m.high.(s0)) else (f0, f0)
    in
    let f10, f11 =
      if m.level.(s1) = i + 1 then
        (m.low.(s1) lxor (f1 land 1), m.high.(s1) lxor (f1 land 1))
      else (f1, f1)
    in
    let t' = mk_reorder m ctx (i + 1) f01 f11 in
    let e' = mk_reorder m ctx (i + 1) f00 f10 in
    m.low.(s) <- e';
    m.high.(s) <- t';
    bucket_insert m s;
    lv_push ctx.rl.(i) s;
    reorder_deref m ctx f0;
    reorder_deref m ctx f1
  done;
  (* Surviving Y-nodes rise to level i; the ones orphaned by the rewrites
     are in [ctx.dead] with rc = 0 and get reclaimed below. *)
  for k = 0 to li1.ln - 1 do
    let s = li1.la.(k) in
    if m.rc.(s) > 0 then begin
      m.level.(s) <- i;
      bucket_insert m s;
      lv_push ctx.rl.(i) s
    end
  done;
  flush_dead m ctx;
  let vx = m.var_at_level.(i) and vy = m.var_at_level.(i + 1) in
  m.var_at_level.(i) <- vy;
  m.var_at_level.(i + 1) <- vx;
  m.level_of_var.(vx) <- i + 1;
  m.level_of_var.(vy) <- i;
  m.reorder_swaps <- m.reorder_swaps + 1;
  if m.alive_count > 2 * Array.length m.buckets then rehash m

let reorder_begin m =
  collect m;
  let ctx =
    {
      rl = Array.init m.nvars (fun _ -> lv_make ());
      stamp = Array.make (Array.length m.level) 0;
      gen = 0;
      dead = lv_make ();
    }
  in
  for s = 1 to m.used - 1 do
    let lv = m.level.(s) in
    if lv >= 0 && lv < m.nvars then lv_push ctx.rl.(lv) s
  done;
  ctx

(* The computed cache stays semantically valid under in-place swaps, but
   entries may name slots that died and were recycled during the run. *)
let reorder_end m =
  Array.fill m.cache_f 0 (Array.length m.cache_f) (-1);
  if Obs.enabled () then sample_gauges m

let swap_levels m i =
  if i < 0 || i + 1 >= m.nvars then
    invalid_arg "Manager.swap_levels: level out of range";
  let ctx = reorder_begin m in
  swap_adjacent m ctx i;
  reorder_end m

let set_groups m groups =
  if Array.length groups <> 0 && Array.length groups <> m.nvars then
    invalid_arg "Manager.set_groups: length mismatch";
  m.group_of_var <- Array.copy groups

(* Blocks = maximal runs of same-group variables in the current order
   (singletons when no groups are set). Raises if a group is split. *)
let blocks_of m =
  if Array.length m.group_of_var = 0 then
    Array.init m.nvars (fun lv -> (lv, 1))
  else begin
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let lv = ref 0 in
    while !lv < m.nvars do
      let g = m.group_of_var.(m.var_at_level.(!lv)) in
      if Hashtbl.mem seen g then
        invalid_arg "Manager.sift: group not contiguous in current order";
      Hashtbl.add seen g ();
      let j = ref (!lv + 1) in
      while !j < m.nvars && m.group_of_var.(m.var_at_level.(!j)) = g do
        incr j
      done;
      acc := (!lv, !j - !lv) :: !acc;
      lv := !j
    done;
    Array.of_list (List.rev !acc)
  end

let sift ?(max_growth = 1.2) ?(max_passes = 8) m =
  let blocks = blocks_of m in
  let nb = Array.length blocks in
  if nb > 1 then begin
    let ctx = reorder_begin m in
    m.reorder_runs <- m.reorder_runs + 1;
    let start_size = m.alive_count in
    let swaps0 = m.reorder_swaps in
    Trace.instant "bdd.reorder.start" ~args:[ ("nodes", Json.Int start_size) ];
    (* Position -> block id, block id -> size, position -> start level. *)
    let order = Array.init nb (fun p -> p) in
    let bsize = Array.map snd blocks in
    let starts = Array.map fst blocks in
    let aborted = ref false in
    (* Swap the blocks at positions p and p+1: walk the upper block's
       levels bottom-up, each one descending through the whole lower
       block, so both blocks keep their internal variable order. *)
    let swap_positions p =
      let a = order.(p) and b = order.(p + 1) in
      let sa = bsize.(a) and sb = bsize.(b) in
      let st = starts.(p) in
      for j = sa - 1 downto 0 do
        for t = 0 to sb - 1 do
          swap_adjacent m ctx (st + j + t)
        done
      done;
      order.(p) <- b;
      order.(p + 1) <- a;
      starts.(p + 1) <- st + sb
    in
    (* Like [swap_positions], but if [alive] crosses [cap] mid-swap the
       partial swap is undone (adjacent swaps are involutions, so
       replaying them in reverse restores the exact starting state) and
       the move is refused. Mid-swap orders interleave the two groups —
       exactly the mixtures sifting exists to avoid — so an over-budget
       transient is rolled back rather than ridden out; without this the
       peak can overshoot the cap by several times inside one block swap. *)
    let swap_positions_bounded ~cap p =
      let a = order.(p) and b = order.(p + 1) in
      let sa = bsize.(a) and sb = bsize.(b) in
      let st = starts.(p) in
      let undo = ref [] in
      let over = ref false in
      (try
         for j = sa - 1 downto 0 do
           for t = 0 to sb - 1 do
             swap_adjacent m ctx (st + j + t);
             undo := (st + j + t) :: !undo;
             if m.alive_count > cap then raise Exit
           done
         done
       with Exit -> over := true);
      if !over then begin
        List.iter (fun k -> swap_adjacent m ctx k) !undo;
        false
      end
      else begin
        order.(p) <- b;
        order.(p + 1) <- a;
        starts.(p + 1) <- st + sb;
        true
      end
    in
    let pos_of bid =
      let p = ref 0 in
      while order.(!p) <> bid do
        incr p
      done;
      !p
    in
    (* Sift one block to its best seen position: explore toward the
       nearer end first, then the other, bounded by [max_growth] per
       direction; blowing through the manager's node budget aborts the
       whole run (after walking the block back to its best position, so
       an aborted sift still never ends worse than it started). *)
    let sift_block bid =
      let p0 = pos_of bid in
      let size0 = m.alive_count in
      let grow_cap =
        int_of_float (max_growth *. float_of_int size0) + 16
      in
      let best_size = ref size0 and best_pos = ref p0 in
      let cur = ref p0 in
      let explore down =
        let keep_going = ref true in
        (* The growth cap and the manager's node budget are both enforced
           mid-swap: a refused move rolls back, so the transient never
           runs away inside a block swap. Refusal at the budget ceiling
           aborts the whole run (old semantics); refusal at the growth
           cap just ends this direction. *)
        let cap = min grow_cap m.node_limit in
        while
          !keep_going && (not !aborted)
          && (if down then !cur < nb - 1 else !cur > 0)
        do
          let moved =
            swap_positions_bounded ~cap (if down then !cur else !cur - 1)
          in
          if moved then begin
            if down then incr cur else decr cur;
            if m.alive_count < !best_size then begin
              best_size := m.alive_count;
              best_pos := !cur
            end
          end
          else begin
            keep_going := false;
            if m.node_limit <= grow_cap then aborted := true
          end
        done
      in
      let down_first = p0 >= (nb - 1) / 2 in
      explore down_first;
      if not !aborted then explore (not down_first);
      (* Walk back to the best position; every order on the way was
         already visited, so sizes just replay. *)
      while !cur > !best_pos do
        swap_positions (!cur - 1);
        decr cur
      done;
      while !cur < !best_pos do
        swap_positions !cur;
        incr cur
      done
    in
    let level_counts () =
      let c = Array.make m.nvars 0 in
      for s = 1 to m.used - 1 do
        let lv = m.level.(s) in
        if lv >= 0 && lv < m.nvars then c.(lv) <- c.(lv) + 1
      done;
      c
    in
    let improved = ref true in
    let pass = ref 0 in
    while !improved && not !aborted && !pass < max_passes do
      incr pass;
      let size_before = m.alive_count in
      let counts = level_counts () in
      let weight bid =
        let p = pos_of bid in
        let w = ref 0 in
        for lv = starts.(p) to starts.(p) + bsize.(bid) - 1 do
          w := !w + counts.(lv)
        done;
        !w
      in
      let candidates = Array.init nb (fun bid -> (weight bid, bid)) in
      Array.sort
        (fun (wa, ba) (wb, bb) ->
          if wa <> wb then compare wb wa else compare ba bb)
        candidates;
      Array.iter
        (fun (_, bid) -> if not !aborted then sift_block bid)
        candidates;
      improved := m.alive_count < size_before
    done;
    if !aborted then m.reorder_aborts <- m.reorder_aborts + 1;
    reorder_end m;
    Trace.instant "bdd.reorder.done"
      ~args:
        [
          ("before", Json.Int start_size);
          ("after", Json.Int m.alive_count);
          ("swaps", Json.Int (m.reorder_swaps - swaps0));
          ("aborted", Json.Bool !aborted);
        ]
  end

(* Restore an explicit order: [target.(v)] is the level variable [v] must
   end at. Checks the node budget at swap boundaries (a transient order en
   route may be much bigger than either endpoint).

   When groups are installed and both the current and the target order
   keep them contiguous, the walk is group-aware: bits are first sorted
   inside each block, then whole blocks move as units — intermediate
   orders never interleave two groups, which keeps the transient close to
   max(start, end) size instead of the arbitrary mixtures a variable-level
   selection sort passes through. Otherwise it falls back to plain
   variable-level selection sort (the caller owns the target). *)
let set_order m target =
  if Array.length target <> m.nvars then
    invalid_arg "Manager.set_order: length mismatch";
  let seen = Array.make (max 1 m.nvars) false in
  Array.iter
    (fun lv ->
      if lv < 0 || lv >= m.nvars || seen.(lv) then
        invalid_arg "Manager.set_order: not a permutation";
      seen.(lv) <- true)
    target;
  let already = ref true in
  Array.iteri (fun v lv -> if m.level_of_var.(v) <> lv then already := false) target;
  (* Does [target] keep every installed group in one contiguous run? *)
  let target_contiguous () =
    Array.length m.group_of_var = m.nvars
    &&
    let tvar = Array.make m.nvars 0 in
    Array.iteri (fun v lv -> tvar.(lv) <- v) target;
    let ok = ref true in
    let lv = ref 0 in
    let seen_g = Hashtbl.create 16 in
    while !ok && !lv < m.nvars do
      let g = m.group_of_var.(tvar.(!lv)) in
      if Hashtbl.mem seen_g g then ok := false
      else begin
        Hashtbl.add seen_g g ();
        incr lv;
        while !lv < m.nvars && m.group_of_var.(tvar.(!lv)) = g do
          incr lv
        done
      end
    done;
    !ok
  in
  if not !already then begin
    let ctx = reorder_begin m in
    let checked_swap k =
      swap_adjacent m ctx k;
      if m.alive_count > m.node_limit then raise Node_limit_exceeded
    in
    Fun.protect
      ~finally:(fun () -> reorder_end m)
      (fun () ->
        match if target_contiguous () then Some (blocks_of m) else None with
        | exception Invalid_argument _ | None ->
            (* Variable-level selection sort. *)
            let want = Array.make m.nvars 0 in
            Array.iteri (fun v lv -> want.(lv) <- v) target;
            for lv = 0 to m.nvars - 2 do
              let v = want.(lv) in
              for k = m.level_of_var.(v) - 1 downto lv do
                checked_swap k
              done
            done
        | Some blocks ->
            let nb = Array.length blocks in
            (* Intra-block bubble sort by target level: swaps stay inside
               one group's run, so contiguity is never broken. *)
            Array.iter
              (fun (st, sz) ->
                for i = st + sz - 1 downto st + 1 do
                  for k = st to i - 1 do
                    if
                      target.(m.var_at_level.(k))
                      > target.(m.var_at_level.(k + 1))
                    then checked_swap k
                  done
                done)
              blocks;
            (* Block selection sort toward the target group sequence,
               moving whole blocks (same nested walk as sift). *)
            let order = Array.init nb (fun p -> p) in
            let bsize = Array.map snd blocks in
            let starts = Array.map fst blocks in
            let block_group =
              Array.map (fun (st, _) -> m.group_of_var.(m.var_at_level.(st))) blocks
            in
            let swap_positions p =
              let a = order.(p) and b = order.(p + 1) in
              let sa = bsize.(a) and sb = bsize.(b) in
              let st = starts.(p) in
              for j = sa - 1 downto 0 do
                for t = 0 to sb - 1 do
                  checked_swap (st + j + t)
                done
              done;
              order.(p) <- b;
              order.(p + 1) <- a;
              starts.(p + 1) <- st + sb
            in
            (* Group id at each target block position, in target order. *)
            let desired =
              let tvar = Array.make m.nvars 0 in
              Array.iteri (fun v lv -> tvar.(lv) <- v) target;
              let acc = ref [] in
              let lv = ref 0 in
              while !lv < m.nvars do
                let g = m.group_of_var.(tvar.(!lv)) in
                acc := g :: !acc;
                while
                  !lv < m.nvars && m.group_of_var.(tvar.(!lv)) = g
                do
                  incr lv
                done
              done;
              Array.of_list (List.rev !acc)
            in
            Array.iteri
              (fun k g ->
                let p = ref k in
                while block_group.(order.(!p)) <> g do
                  incr p
                done;
                while !p > k do
                  swap_positions (!p - 1);
                  decr p
                done)
              desired)
  end

type reorder_stats = { runs : int; swaps : int; aborted : int }

let reorder_stats m =
  { runs = m.reorder_runs; swaps = m.reorder_swaps; aborted = m.reorder_aborts }

(* Full structural validator for the test suite: canonicity (regular
   stored else-edges, no redundant or duplicate nodes, strictly deeper
   children), unique-table consistency (every live-or-dead slot hooked
   exactly once, in the right bucket), refcount bookkeeping, and the
   variable/level permutation being a proper inverse pair. O(n), so not
   for hot paths. *)
let check_invariants m =
  let fail fmt =
    Printf.ksprintf (fun s -> failwith ("Manager.check_invariants: " ^ s)) fmt
  in
  for v = 0 to m.nvars - 1 do
    let lv = m.level_of_var.(v) in
    if lv < 0 || lv >= m.nvars then fail "level_of_var(%d) out of range" v;
    if m.var_at_level.(lv) <> v then
      fail "var_at_level/level_of_var disagree at variable %d" v
  done;
  let alive = ref 0 and dead = ref 0 in
  for s = 1 to m.used - 1 do
    let lv = m.level.(s) in
    if lv >= 0 then begin
      if lv >= m.nvars then fail "slot %d: level %d out of range" s lv;
      if m.rc.(s) > 0 then incr alive else incr dead;
      let lo = m.low.(s) and hi = m.high.(s) in
      if lo land 1 <> 0 then fail "slot %d: complemented stored else-edge" s;
      if lo = hi then fail "slot %d: redundant node" s;
      if lo lsr 1 >= m.used || hi lsr 1 >= m.used then
        fail "slot %d: child out of bounds" s;
      if m.level.(lo lsr 1) <= lv then
        fail "slot %d: low child not strictly deeper" s;
      if m.level.(hi lsr 1) <= lv then
        fail "slot %d: high child not strictly deeper" s
    end
  done;
  if !alive <> m.alive_count then
    fail "alive_count %d but %d referenced slots" m.alive_count !alive;
  if !dead <> m.dead_count then
    fail "dead_count %d but %d unreferenced slots" m.dead_count !dead;
  let hooked = Array.make m.used false in
  for b = 0 to Array.length m.buckets - 1 do
    let steps = ref 0 in
    let i = ref m.buckets.(b) in
    while !i >= 0 do
      incr steps;
      if !steps > m.used + 1 then fail "bucket %d: chain cycle" b;
      let s = !i in
      if s >= m.used || m.level.(s) < 0 then
        fail "bucket %d: freed slot %d in chain" b s;
      if hooked.(s) then fail "slot %d hooked twice" s;
      hooked.(s) <- true;
      if hash3 m.level.(s) m.low.(s) m.high.(s) land m.bucket_mask <> b then
        fail "slot %d hooked in the wrong bucket" s;
      i := m.next.(s)
    done
  done;
  for s = 1 to m.used - 1 do
    if m.level.(s) >= 0 && not hooked.(s) then fail "slot %d not hooked" s
  done;
  let tbl = Hashtbl.create 256 in
  for s = 1 to m.used - 1 do
    if m.level.(s) >= 0 then begin
      let key = (m.level.(s), m.low.(s), m.high.(s)) in
      if Hashtbl.mem tbl key then fail "duplicate node at slot %d" s;
      Hashtbl.add tbl key ()
    end
  done

let alive m = m.alive_count
let peak_alive m = m.peak
let dead m = m.dead_count
let created_total m = m.created
let gc_count m = m.gc_runs
let reset_peak m = m.peak <- m.alive_count

type stats = {
  alive : int;
  peak : int;
  dead : int;
  created : int;
  gc_runs : int;
  reclaimed : int;
  unique_hits : int;
  cache_hits : int;
  cache_misses : int;
  and_or_fast_hits : int;
}

let stats (m : t) =
  {
    alive = m.alive_count;
    peak = m.peak;
    dead = m.dead_count;
    created = m.created;
    gc_runs = m.gc_runs;
    reclaimed = m.reclaimed;
    unique_hits = m.unique_hits;
    cache_hits = m.cache_hits;
    cache_misses = m.cache_misses;
    and_or_fast_hits = m.and_or_fast_hits;
  }

(* Table-occupancy snapshot: walks the unique-table buckets and scans the
   computed cache — linear in table size, so done only at [publish_obs]
   checkpoints, never on the hot path. Chains include dead-but-uncollected
   slots, which is the load the probe sequences actually traverse. *)
let snapshot_occupancy m =
  let nb = Array.length m.buckets in
  let counts = ref (Array.make 8 0) in
  let bump len =
    if len >= Array.length !counts then begin
      let c = Array.make (len + 1) 0 in
      Array.blit !counts 0 c 0 (Array.length !counts);
      counts := c
    end;
    !counts.(len) <- !counts.(len) + 1
  in
  for b = 0 to nb - 1 do
    let len = ref 0 in
    let i = ref m.buckets.(b) in
    while !i >= 0 do
      len := !len + 1;
      i := m.next.(!i)
    done;
    bump !len
  done;
  Memory.record_occupancy ~name:"bdd.unique"
    ~used:(m.alive_count + m.dead_count)
    ~capacity:nb;
  Memory.observe_chain_lengths ~name:"bdd.unique" !counts;
  let cache_used = ref 0 in
  Array.iter (fun f -> if f >= 0 then cache_used := !cache_used + 1) m.cache_f;
  Memory.record_occupancy ~name:"bdd.cache" ~used:!cache_used
    ~capacity:(Array.length m.cache_f)

let publish_obs (m : t) =
  if Obs.enabled () then begin
    (* Publish only the delta since the last publish for this manager, so
       calling this any number of times never double-counts. *)
    Obs.add obs_created (m.created - m.pub_created);
    Obs.add obs_unique_hits (m.unique_hits - m.pub_unique_hits);
    Obs.add obs_cache_hits (m.cache_hits - m.pub_cache_hits);
    Obs.add obs_cache_misses (m.cache_misses - m.pub_cache_misses);
    Obs.add obs_and_or_fast_hits (m.and_or_fast_hits - m.pub_and_or_fast_hits);
    Obs.add obs_gc_runs (m.gc_runs - m.pub_gc_runs);
    Obs.add obs_reclaimed (m.reclaimed - m.pub_reclaimed);
    Obs.add obs_reorder_runs (m.reorder_runs - m.pub_reorder_runs);
    Obs.add obs_reorder_swaps (m.reorder_swaps - m.pub_reorder_swaps);
    Obs.add obs_reorder_aborts (m.reorder_aborts - m.pub_reorder_aborts);
    m.pub_created <- m.created;
    m.pub_unique_hits <- m.unique_hits;
    m.pub_cache_hits <- m.cache_hits;
    m.pub_cache_misses <- m.cache_misses;
    m.pub_and_or_fast_hits <- m.and_or_fast_hits;
    m.pub_gc_runs <- m.gc_runs;
    m.pub_reclaimed <- m.reclaimed;
    m.pub_reorder_runs <- m.reorder_runs;
    m.pub_reorder_swaps <- m.reorder_swaps;
    m.pub_reorder_aborts <- m.reorder_aborts;
    sample_gauges m;
    snapshot_occupancy m
  end

let to_dot m n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph bdd {\n";
  Buffer.add_string buf "  t1 [label=\"1\", shape=box];\n";
  let name h = if h land -2 = 0 then "t1" else Printf.sprintf "n%d" (h lsr 1) in
  (* Complemented edges carry an odot arrowhead; the root handle's own
     polarity is drawn as an entry edge. *)
  let edge src child ~dashed =
    let attrs =
      (if dashed then [ "style=dashed" ] else [])
      @ if child land 1 = 1 then [ "arrowhead=odot" ] else []
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s -> %s%s;\n" src (name child)
         (match attrs with
         | [] -> ""
         | l -> " [" ^ String.concat ", " l ^ "]"))
  in
  Buffer.add_string buf "  root [shape=none, label=\"\"];\n";
  edge "root" n ~dashed:false;
  iter_reachable m n (fun x ->
      if not (is_terminal x) then begin
        let s = x lsr 1 in
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"x%d\"];\n" s
             m.var_at_level.(m.level.(s)));
        edge (Printf.sprintf "n%d" s) m.low.(s) ~dashed:true;
        edge (Printf.sprintf "n%d" s) m.high.(s) ~dashed:false
      end);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
