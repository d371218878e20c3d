(* Parallel ROBDD construction over the concurrent [Store].

   The algorithm layer split out of [Manager]: the same iterative
   explicit-stack ITE/AND kernels (identical Brace–Rudell normalization,
   complement-edge rules and cache keys), but

   - nodes come from [Store.mk] (sharded, thread-safe, no refcounts);
   - the computed/ITE cache is PER DOMAIN (domain-local storage keyed by
     the store id), so domains never contend on cache lines — at the
     cost of some duplicated subproblem work, the standard trade;
   - a public operation first expands the cofactor recursion breadth-
     first into a small frontier of independent subproblems, deduped and
     distributed over the [Par] team, then recombines the sub-results
     bottom-up with [Store.mk]. Hash-consing makes the result canonical
     regardless of which domain built which part, which is why parallel
     yields and sizes are bit-identical to the sequential engine.

   A finished diagram is [import]ed into a fresh sequential [Manager]
   (deterministic children-first DFS, O(final size)) so every downstream
   consumer — conversion, probability, reports, invariant checks — runs
   unchanged on the battle-tested sequential code. *)

module Obs = Socy_obs.Obs

type node = int

let one = Store.one
let zero = Store.zero

type t = {
  store : Store.t;
  team : Par.t;
  cache_bits : int; (* per-domain cap *)
  (* Cache statistics drained from the per-domain caches at task ends. *)
  agg_hits : int Atomic.t;
  agg_misses : int Atomic.t;
  agg_fast : int Atomic.t;
}

(* Per-domain cache cap: shrink the sequential cap by the team size so
   total cache memory matches a sequential run's instead of multiplying
   by the domain count. *)
let scaled_cache_bits ~cache_bits ~domains =
  let rec log2ceil n = if n <= 1 then 0 else 1 + log2ceil ((n + 1) / 2) in
  max 14 (cache_bits - log2ceil domains)

let create ?node_limit ?cpu_limit ?(cache_bits = 18) ~team ~num_vars () =
  if cache_bits < 1 || cache_bits > 28 then
    invalid_arg "Pbdd.create: cache_bits out of range";
  {
    store = Store.create ?node_limit ?cpu_limit ~num_vars ();
    team;
    cache_bits = scaled_cache_bits ~cache_bits ~domains:(Par.domains team);
    agg_hits = Atomic.make 0;
    agg_misses = Atomic.make 0;
    agg_fast = Atomic.make 0;
  }

let store t = t.store
let team t = t.team

(* --- per-domain computed cache ------------------------------------------- *)

let ite_stride = 14

(* Each domain's cache starts at [2^initial_cache_bits] lines and doubles,
   like [Manager]'s, once a miss finds more store nodes than it has lines,
   up to [2^t.cache_bits] lines (at least [2^14], so it can always grow). *)
type cache = {
  cid : int; (* owning store id *)
  mutable cf : int array;
  mutable cg : int array;
  mutable ch : int array;
  mutable cr : int array;
  mutable cmask : int;
  mutable grow_at : int; (* line count, or [max_int] at [cmax] lines *)
  cmax : int;
  mutable frames : int array;
  mutable hits : int;
  mutable misses : int;
  mutable fast : int;
  mutable pub_hits : int;
  mutable pub_misses : int;
  mutable pub_fast : int;
}

let cache_key : cache option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let initial_cache_bits = 12

let fresh_cache t =
  let n = 1 lsl initial_cache_bits in
  {
    cid = Store.id t.store;
    cf = Array.make n (-1);
    cg = Array.make n 0;
    ch = Array.make n 0;
    cr = Array.make n 0;
    cmask = n - 1;
    grow_at = n;
    cmax = 1 lsl t.cache_bits;
    frames = Array.make (64 * ite_stride) 0;
    hits = 0;
    misses = 0;
    fast = 0;
    pub_hits = 0;
    pub_misses = 0;
    pub_fast = 0;
  }

let cache t =
  let r = Domain.DLS.get cache_key in
  match !r with
  | Some c when c.cid = Store.id t.store -> c
  | _ ->
      let c = fresh_cache t in
      r := Some c;
      c

let drain_cache_stats t c =
  Atomic.fetch_and_add t.agg_hits (c.hits - c.pub_hits) |> ignore;
  Atomic.fetch_and_add t.agg_misses (c.misses - c.pub_misses) |> ignore;
  Atomic.fetch_and_add t.agg_fast (c.fast - c.pub_fast) |> ignore;
  c.pub_hits <- c.hits;
  c.pub_misses <- c.misses;
  c.pub_fast <- c.fast

let hash3 = Store.hash3

(* Double [c], re-inserting every filled line under the new mask: the
   resize of [Manager.grow_cache], whose comment explains why no result
   can change. The kernels check [Store.created_approx], a shared atomic,
   only once per 1024 misses. *)
let grow_cache c =
  let n = 2 * (c.cmask + 1) in
  let mask = n - 1 in
  let f = Array.make n (-1) and g = Array.make n 0 in
  let h = Array.make n 0 and r = Array.make n 0 in
  for i = 0 to c.cmask do
    let k = c.cf.(i) in
    if k >= 0 then begin
      let j = hash3 k c.cg.(i) c.ch.(i) land mask in
      f.(j) <- k;
      g.(j) <- c.cg.(i);
      h.(j) <- c.ch.(i);
      r.(j) <- c.cr.(i)
    end
  done;
  c.cf <- f;
  c.cg <- g;
  c.ch <- h;
  c.cr <- r;
  c.cmask <- mask;
  c.grow_at <- (if n < c.cmax then n else max_int)

(* --- sequential kernels over the store ----------------------------------- *)

(* Ports of [Manager.and_] / [Manager.ite] — same frame layout, same
   normalization — minus refcounting, reading node fields through the
   chunked store and caching in the domain-local [cache]. *)

let and_code = -2

let seq_and t c f g =
  let st = t.store in
  let al = Store.allocator st in
  let finished = ref (-1) in
  let ntop = ref 0 in
  let launch f g =
    if f = g || g = one then begin
      c.fast <- c.fast + 1;
      finished := f
    end
    else if f = one then begin
      c.fast <- c.fast + 1;
      finished := g
    end
    else if f = zero || g = zero || f = g lxor 1 then begin
      c.fast <- c.fast + 1;
      finished := zero
    end
    else begin
      let a, b = if f < g then (f, g) else (g, f) in
      let ci = hash3 a b and_code land c.cmask in
      if c.cf.(ci) = a && c.cg.(ci) = b && c.ch.(ci) = and_code then begin
        c.hits <- c.hits + 1;
        finished := c.cr.(ci)
      end
      else begin
        c.misses <- c.misses + 1;
        let ci =
          if c.misses land 1023 = 0 && Store.created_approx st > c.grow_at
          then begin
            grow_cache c;
            hash3 a b and_code land c.cmask
          end
          else ci
        in
        let sa = a lsr 1 and sb = b lsr 1 in
        let la = Store.level_of_slot st sa and lb = Store.level_of_slot st sb in
        let lv = min la lb in
        if !ntop * ite_stride = Array.length c.frames then begin
          let bb = Array.make (2 * Array.length c.frames) 0 in
          Array.blit c.frames 0 bb 0 (Array.length c.frames);
          c.frames <- bb
        end;
        let s = c.frames in
        let base = !ntop * ite_stride in
        incr ntop;
        s.(base) <- a;
        s.(base + 1) <- b;
        s.(base + 2) <- lv;
        s.(base + 3) <- 0;
        s.(base + 4) <-
          (if la = lv then Store.high_of_slot st sa lxor (a land 1) else a);
        s.(base + 5) <-
          (if lb = lv then Store.high_of_slot st sb lxor (b land 1) else b);
        s.(base + 6) <-
          (if la = lv then Store.low_of_slot st sa lxor (a land 1) else a);
        s.(base + 7) <-
          (if lb = lv then Store.low_of_slot st sb lxor (b land 1) else b);
        s.(base + 9) <- ci
      end
    end
  in
  launch f g;
  while !ntop > 0 do
    let s = c.frames in
    let base = (!ntop - 1) * ite_stride in
    match s.(base + 3) with
    | 0 ->
        s.(base + 3) <- 1;
        launch s.(base + 4) s.(base + 5)
    | 1 ->
        s.(base + 8) <- !finished;
        s.(base + 3) <- 2;
        launch s.(base + 6) s.(base + 7)
    | _ ->
        let e = !finished in
        let tr = s.(base + 8) in
        let r = Store.mk st al s.(base + 2) e tr in
        let ci = s.(base + 9) in
        c.cf.(ci) <- s.(base);
        c.cg.(ci) <- s.(base + 1);
        c.ch.(ci) <- and_code;
        c.cr.(ci) <- r;
        decr ntop;
        finished := r
  done;
  !finished

let seq_ite t c f g h =
  let st = t.store in
  let al = Store.allocator st in
  let finished = ref (-1) in
  let ntop = ref 0 in
  let launch f g h =
    if f = one then finished := g
    else if f = zero then finished := h
    else begin
      let g = if g = f then one else if g = f lxor 1 then zero else g in
      let h = if h = f then zero else if h = f lxor 1 then one else h in
      if g = h then finished := g
      else if g = one && h = zero then finished := f
      else if g = zero && h = one then finished := f lxor 1
      else begin
        let f, g, h =
          if g = one then
            if h land -2 < f land -2 then (h, one, f) else (f, g, h)
          else if h = zero then
            if g land -2 < f land -2 then (g, f, zero) else (f, g, h)
          else if g = zero then
            if h land -2 < f land -2 then (h lxor 1, zero, f lxor 1)
            else (f, g, h)
          else if h = one then
            if g land -2 < f land -2 then (g lxor 1, f lxor 1, one)
            else (f, g, h)
          else if g = h lxor 1 then
            if g land -2 < f land -2 then (g, f, f lxor 1) else (f, g, h)
          else (f, g, h)
        in
        let f, g, h = if f land 1 = 1 then (f lxor 1, h, g) else (f, g, h) in
        let neg = g land 1 in
        let g = g lxor neg and h = h lxor neg in
        let ci = hash3 f g h land c.cmask in
        if c.cf.(ci) = f && c.cg.(ci) = g && c.ch.(ci) = h then begin
          c.hits <- c.hits + 1;
          finished := c.cr.(ci) lxor neg
        end
        else begin
          c.misses <- c.misses + 1;
          let ci =
            if c.misses land 1023 = 0 && Store.created_approx st > c.grow_at
            then begin
              grow_cache c;
              hash3 f g h land c.cmask
            end
            else ci
          in
          let sf = f lsr 1 and sg = g lsr 1 and sh = h lsr 1 in
          let lf = Store.level_of_slot st sf
          and lg = Store.level_of_slot st sg
          and lh = Store.level_of_slot st sh in
          let lv = min lf (min lg lh) in
          if !ntop * ite_stride = Array.length c.frames then begin
            let b = Array.make (2 * Array.length c.frames) 0 in
            Array.blit c.frames 0 b 0 (Array.length c.frames);
            c.frames <- b
          end;
          let s = c.frames in
          let base = !ntop * ite_stride in
          incr ntop;
          s.(base) <- f;
          s.(base + 1) <- g;
          s.(base + 2) <- h;
          s.(base + 3) <- lv;
          s.(base + 4) <- 0;
          s.(base + 5) <- neg;
          s.(base + 6) <-
            (if lf = lv then Store.high_of_slot st sf lxor (f land 1) else f);
          s.(base + 7) <-
            (if lg = lv then Store.high_of_slot st sg lxor (g land 1) else g);
          s.(base + 8) <-
            (if lh = lv then Store.high_of_slot st sh lxor (h land 1) else h);
          s.(base + 9) <-
            (if lf = lv then Store.low_of_slot st sf lxor (f land 1) else f);
          s.(base + 10) <-
            (if lg = lv then Store.low_of_slot st sg lxor (g land 1) else g);
          s.(base + 11) <-
            (if lh = lv then Store.low_of_slot st sh lxor (h land 1) else h);
          s.(base + 13) <- ci
        end
      end
    end
  in
  launch f g h;
  while !ntop > 0 do
    let s = c.frames in
    let base = (!ntop - 1) * ite_stride in
    match s.(base + 4) with
    | 0 ->
        s.(base + 4) <- 1;
        launch s.(base + 6) s.(base + 7) s.(base + 8)
    | 1 ->
        s.(base + 12) <- !finished;
        s.(base + 4) <- 2;
        launch s.(base + 9) s.(base + 10) s.(base + 11)
    | _ ->
        let e = !finished in
        let tr = s.(base + 12) in
        let r = Store.mk st al s.(base + 3) e tr in
        let ci = s.(base + 13) in
        c.cf.(ci) <- s.(base);
        c.cg.(ci) <- s.(base + 1);
        c.ch.(ci) <- s.(base + 2);
        c.cr.(ci) <- r;
        decr ntop;
        finished := r lxor s.(base + 5)
  done;
  !finished

(* --- frontier splitting --------------------------------------------------- *)

(* Expansion tree: the breadth-first unfolding of the cofactor recursion
   down to [frontier_depth] levels. [Done] leaves resolved by terminal
   rules during expansion; [Leaf k] references task slot [k] (subproblems
   are deduped — shared structure makes identical cofactor pairs common,
   and solving one twice is pure waste even though both copies would
   produce the same canonical node). *)
type tree = Done of int | Leaf of int | Split of { lv : int; hi : tree; lo : tree }

(* Parallelize only once the diagram is big enough for a barrier to pay;
   below this, public ops run the sequential kernel on the caller. *)
let par_threshold = 4096

let frontier_depth t =
  let target = 4 * Par.domains t.team in
  let rec need d cap = if cap >= target then d else need (d + 1) (2 * cap) in
  min 8 (need 0 1 + 1)

(* Run deduped subproblems over the team, then recombine. *)
let run_frontier t tree ntasks (solve : cache -> int -> int) =
  let st = t.store in
  let results = Array.make ntasks 0 in
  let tasks =
    Array.init ntasks (fun k ->
        fun () ->
          Store.check_abort st;
          let c = cache t in
          results.(k) <- solve c k;
          drain_cache_stats t c)
  in
  Par.run t.team tasks;
  let al = Store.allocator st in
  let rec comb = function
    | Done n -> n
    | Leaf k -> results.(k)
    | Split { lv; hi; lo } -> Store.mk st al lv (comb lo) (comb hi)
  in
  comb tree

let and_ t f g =
  let st = t.store in
  if Par.domains t.team <= 1 || Store.created_approx st < par_threshold then begin
    let c = cache t in
    let r = seq_and t c f g in
    drain_cache_stats t c;
    r
  end
  else begin
    let reg = Hashtbl.create 64 in
    let pairs = ref [] in
    let npairs = ref 0 in
    let rec exp d f g =
      if f = g || g = one then Done f
      else if f = one then Done g
      else if f = zero || g = zero || f = g lxor 1 then Done zero
      else if d = 0 then begin
        let a, b = if f < g then (f, g) else (g, f) in
        match Hashtbl.find_opt reg (a, b) with
        | Some k -> Leaf k
        | None ->
            let k = !npairs in
            incr npairs;
            pairs := (a, b) :: !pairs;
            Hashtbl.add reg (a, b) k;
            Leaf k
      end
      else begin
        let sf = f lsr 1 and sg = g lsr 1 in
        let lf = Store.level_of_slot st sf and lg = Store.level_of_slot st sg in
        let lv = min lf lg in
        let f1 = if lf = lv then Store.high_of_slot st sf lxor (f land 1) else f in
        let g1 = if lg = lv then Store.high_of_slot st sg lxor (g land 1) else g in
        let f0 = if lf = lv then Store.low_of_slot st sf lxor (f land 1) else f in
        let g0 = if lg = lv then Store.low_of_slot st sg lxor (g land 1) else g in
        Split { lv; hi = exp (d - 1) f1 g1; lo = exp (d - 1) f0 g0 }
      end
    in
    let tree = exp (frontier_depth t) f g in
    if !npairs <= 1 then begin
      let c = cache t in
      let r = seq_and t c f g in
      drain_cache_stats t c;
      r
    end
    else begin
      let parr = Array.of_list (List.rev !pairs) in
      run_frontier t tree !npairs (fun c k ->
          let a, b = parr.(k) in
          seq_and t c a b)
    end
  end

let ite t f g h =
  let st = t.store in
  if Par.domains t.team <= 1 || Store.created_approx st < par_threshold then begin
    let c = cache t in
    let r = seq_ite t c f g h in
    drain_cache_stats t c;
    r
  end
  else begin
    let reg = Hashtbl.create 64 in
    let triples = ref [] in
    let ntriples = ref 0 in
    let rec exp d f g h =
      if f = one then Done g
      else if f = zero then Done h
      else begin
        let g = if g = f then one else if g = f lxor 1 then zero else g in
        let h = if h = f then zero else if h = f lxor 1 then one else h in
        if g = h then Done g
        else if g = one && h = zero then Done f
        else if g = zero && h = one then Done (f lxor 1)
        else if d = 0 then begin
          match Hashtbl.find_opt reg (f, g, h) with
          | Some k -> Leaf k
          | None ->
              let k = !ntriples in
              incr ntriples;
              triples := (f, g, h) :: !triples;
              Hashtbl.add reg (f, g, h) k;
              Leaf k
        end
        else begin
          let sf = f lsr 1 and sg = g lsr 1 and sh = h lsr 1 in
          let lf = Store.level_of_slot st sf
          and lg = Store.level_of_slot st sg
          and lh = Store.level_of_slot st sh in
          let lv = min lf (min lg lh) in
          let cof fld x sx lx =
            if lx = lv then fld st sx lxor (x land 1) else x
          in
          let f1 = cof Store.high_of_slot f sf lf
          and g1 = cof Store.high_of_slot g sg lg
          and h1 = cof Store.high_of_slot h sh lh
          and f0 = cof Store.low_of_slot f sf lf
          and g0 = cof Store.low_of_slot g sg lg
          and h0 = cof Store.low_of_slot h sh lh in
          Split { lv; hi = exp (d - 1) f1 g1 h1; lo = exp (d - 1) f0 g0 h0 }
        end
      end
    in
    let tree = exp (frontier_depth t) f g h in
    if !ntriples <= 1 then begin
      let c = cache t in
      let r = seq_ite t c f g h in
      drain_cache_stats t c;
      r
    end
    else begin
      let tarr = Array.of_list (List.rev !triples) in
      run_frontier t tree !ntriples (fun c k ->
          let f, g, h = tarr.(k) in
          seq_ite t c f g h)
    end
  end

let not_ _t f = f lxor 1
let or_ t f g = and_ t (f lxor 1) (g lxor 1) lxor 1
let xor_ t f g = ite t f (g lxor 1) g

let var t v = Store.var t.store (Store.allocator t.store) v

(* --- statistics ----------------------------------------------------------- *)

let created t = Store.created t.store
let cache_hits t = Atomic.get t.agg_hits
let cache_misses t = Atomic.get t.agg_misses

let publish_obs t =
  Store.publish_obs t.store;
  if Obs.enabled () then begin
    Obs.add (Obs.counter "bdd.par.cache_hits") (Atomic.get t.agg_hits);
    Obs.add (Obs.counter "bdd.par.cache_misses") (Atomic.get t.agg_misses);
    Obs.add (Obs.counter "bdd.par.fast_hits") (Atomic.get t.agg_fast)
  end

(* --- import into a sequential manager ------------------------------------- *)

(* Children-first DFS over the finished (quiesced) diagram, re-creating
   each reachable physical node exactly once in [m] via [Manager.mk].
   Deterministic: the visit order depends only on the canonical diagram,
   not on which domain allocated which slot — so every downstream
   observable (sizes, conversion, yields) matches a sequential build
   bit-for-bit. O(final size), a sliver next to the build itself.

   Refcount discipline: each imported node holds one owned ref from its
   creating [mk] (parents add child refs internally); at the end every
   non-root intermediate gives its build ref back, leaving the root
   cone owned by the caller exactly like [Compile.of_circuit]. *)
let import t root m =
  if Store.is_terminal root then root
  else begin
    let st = t.store in
    let bound = Store.slot_bound st in
    let memo = Array.make bound (-1) in
    (* manager handle of the REGULAR function of each visited slot *)
    let mh h = if h < 2 then h else memo.(h lsr 1) lxor (h land 1) in
    let stack = ref [ root lsr 1 ] in
    while !stack <> [] do
      let s = List.hd !stack in
      if memo.(s) >= 0 then stack := List.tl !stack
      else begin
        let lo = Store.low_of_slot st s in
        let hi = Store.high_of_slot st s in
        if lo >= 2 && memo.(lo lsr 1) < 0 then stack := (lo lsr 1) :: !stack
        else if hi >= 2 && memo.(hi lsr 1) < 0 then stack := (hi lsr 1) :: !stack
        else begin
          memo.(s) <-
            Manager.mk m (Store.level_of_slot st s) (mh lo) (mh hi);
          stack := List.tl !stack
        end
      end
    done;
    let r = mh root in
    (* Release the build refs of every interior node; the root keeps its. *)
    let rs = root lsr 1 in
    for s = 0 to bound - 1 do
      if memo.(s) >= 0 && s <> rs then Manager.deref m memo.(s)
    done;
    r
  end
