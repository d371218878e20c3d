module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Memory = Socy_obs.Memory
module Json = Socy_obs.Json
module Int_vec = Socy_util.Int_vec

type spec = { name : string; domain : int }

type node = int

module Key = struct
  type t = int * int array (* level, children *)

  let equal (l1, c1) (l2, c2) =
    l1 = l2
    && Array.length c1 = Array.length c2
    &&
    let rec loop i = i >= Array.length c1 || (c1.(i) = c2.(i) && loop (i + 1)) in
    loop 0

  let hash (l, c) =
    let h = ref (l * 0x9E3779B1) in
    Array.iter (fun x -> h := (!h * 31) + x + 1) c;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

type t = {
  specs : spec array;
  table : node Tbl.t;
  mutable levels : int array; (* node -> level *)
  mutable kids : int array array; (* node -> children *)
  mutable used : int;
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
  (* Plain integer statistics, unconditionally cheap; published to the
     process-wide registry as deltas by [publish_obs]. *)
  mutable apply_hits : int;
  mutable apply_misses : int;
  mutable sweeps : int;
  mutable pub_apply_hits : int;
  mutable pub_apply_misses : int;
}

let zero = 0
let one = 1
let is_terminal n = n < 2

let initial_cache_bits = 12

let create ?(cache_bits = 16) specs =
  Array.iter
    (fun s ->
      if s.domain < 1 then invalid_arg "Mdd.create: empty domain")
    specs;
  if cache_bits < 1 || cache_bits > 28 then
    invalid_arg "Mdd.create: cache_bits out of range";
  let nvars = Array.length specs in
  let lines = 1 lsl min cache_bits initial_cache_bits in
  let ap_max = 1 lsl cache_bits in
  let levels = Array.make 1024 (-1) in
  levels.(0) <- nvars;
  levels.(1) <- nvars;
  {
    specs;
    table = Tbl.create 4096;
    levels;
    kids = Array.make 1024 [||];
    used = 2;
    ap_op = Array.make lines (-1);
    ap_f = Array.make lines 0;
    ap_g = Array.make lines 0;
    ap_r = Array.make lines 0;
    ap_mask = lines - 1;
    ap_grow_at = (if lines < ap_max then lines else max_int);
    ap_max;
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

let children t n =
  if is_terminal n then invalid_arg "Mdd.children: terminal node";
  t.kids.(n)

let grow t =
  let cap = Array.length t.levels in
  Trace.instant "mdd.grow" ~args:[ ("slots", Json.Int (2 * cap)) ];
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.levels <- extend t.levels (-1);
  t.kids <- extend t.kids [||]

let mk t lv children =
  if lv < 0 || lv >= num_mvars t then invalid_arg "Mdd.mk: level out of range";
  if Array.length children <> t.specs.(lv).domain then
    invalid_arg "Mdd.mk: children arity must match the variable domain";
  let first = children.(0) in
  if Array.for_all (fun c -> c = first) children then first
  else
    let key = (lv, children) in
    match Tbl.find_opt t.table key with
    | Some n -> n
    | None ->
        if t.used = Array.length t.levels then grow t;
        let n = t.used in
        t.used <- n + 1;
        t.levels.(n) <- lv;
        t.kids.(n) <- Array.copy children;
        Tbl.add t.table (lv, t.kids.(n)) n;
        n

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

(* One suspended APPLY call: children [0 .. j-1] are already combined into
   [kid]; the result of combining child [j] arrives through [finished]. *)
type apply_frame = {
  fa : int;
  fb : int;
  flv : int;
  kid : int array;
  mutable j : int;
}

let apply t op f g =
  let opc = op_code op in
  let shortcut f g =
    match op with
    | O_and ->
        if f = zero || g = zero then Some zero
        else if f = one then Some g
        else if g = one then Some f
        else if f = g then Some f
        else None
    | O_or ->
        if f = one || g = one then Some one
        else if f = zero then Some g
        else if g = zero then Some f
        else if f = g then Some f
        else None
    | O_xor ->
        if f = g then Some zero
        else if f = zero then Some g
        else if g = zero then Some f
        else if is_terminal f && is_terminal g then Some one
        else None
  in
  (* Explicit work stack instead of recursion: deep diagrams (hundreds of
     thousands of levels) must not overflow the OCaml stack. [finished]
     carries the result of the innermost resolved call to the frame that
     requested it. *)
  let finished = ref (-1) in
  let stack = ref [] in
  let launch f g =
    match shortcut f g with
    | Some r -> finished := r
    | None ->
        (* Commutative ops: normalize the key. *)
        let a, b = if f <= g then (f, g) else (g, f) in
        let i = hash3 opc a b land t.ap_mask in
        if t.ap_op.(i) = opc && t.ap_f.(i) = a && t.ap_g.(i) = b then begin
          t.apply_hits <- t.apply_hits + 1;
          finished := t.ap_r.(i)
        end
        else begin
          t.apply_misses <- t.apply_misses + 1;
          if t.used > t.ap_grow_at then grow_apply_cache t;
          let lv = min t.levels.(a) t.levels.(b) in
          let domain = t.specs.(lv).domain in
          stack := { fa = a; fb = b; flv = lv; kid = Array.make domain 0; j = -1 } :: !stack
        end
  in
  launch f g;
  let rec drive () =
    match !stack with
    | [] -> ()
    | fr :: rest ->
        if fr.j >= 0 then fr.kid.(fr.j) <- !finished;
        fr.j <- fr.j + 1;
        if fr.j = Array.length fr.kid then begin
          let r = mk t fr.flv fr.kid in
          let i = hash3 opc fr.fa fr.fb land t.ap_mask in
          t.ap_op.(i) <- opc;
          t.ap_f.(i) <- fr.fa;
          t.ap_g.(i) <- fr.fb;
          t.ap_r.(i) <- r;
          stack := rest;
          finished := r
        end
        else begin
          let j = fr.j in
          let cf = if t.levels.(fr.fa) = fr.flv then t.kids.(fr.fa).(j) else fr.fa in
          let cg = if t.levels.(fr.fb) = fr.flv then t.kids.(fr.fb).(j) else fr.fb in
          launch cf cg
        end;
        drive ()
  in
  (* [drive] is tail-recursive: constant OCaml stack regardless of depth. *)
  drive ();
  !finished

let apply_and t f g = apply t O_and f g
let apply_or t f g = apply t O_or f g
let apply_xor t f g = apply t O_xor f g

let not_ t f = apply_xor t f one

let eval t n assignment =
  let rec go n =
    if n = zero then false
    else if n = one then true
    else go t.kids.(n).(assignment t.levels.(n))
  in
  go n

(* Nonterminal nodes of the cone of [n], bucketed by level. Every child sits
   at a strictly greater level than its parent, so iterating buckets from the
   deepest level upward is a bottom-up topological order — the iterative
   replacement for the old recursive memoized descent. The discovery order
   (pop a node, push its unseen children in index order) fixes the order
   within each bucket, and with it the summation order of the downward
   sweep in [probability_with_sensitivities].

   Node ids are dense (below [t.used]), so this walk and [iter_reachable]
   mark them in a [Bytes] and the value tables below are arrays indexed by
   node id: no hashing, nothing kept on the manager between calls. *)
let cone_by_level t n =
  let buckets = Array.make (num_mvars t) [] in
  if not (is_terminal n) then begin
    let seen = Bytes.make t.used '\000' in
    let stack = Int_vec.create () in
    let push c =
      if (not (is_terminal c)) && Bytes.get seen c = '\000' then begin
        Bytes.set seen c '\001';
        ignore (Int_vec.push stack c)
      end
    in
    push n;
    while Int_vec.length stack > 0 do
      let x = Int_vec.pop stack in
      let lv = t.levels.(x) in
      buckets.(lv) <- x :: buckets.(lv);
      Array.iter push t.kids.(x)
    done
  end;
  buckets

(* Per-call value table indexed by node id, terminals preset. *)
let terminal_values t =
  let value = Array.make t.used 0.0 in
  value.(one) <- 1.0;
  value

let probability t n ~p =
  let value = terminal_values t in
  let buckets = cone_by_level t n in
  for lv = num_mvars t - 1 downto 0 do
    List.iter
      (fun x ->
        let kids = t.kids.(x) in
        let acc = ref 0.0 in
        for j = 0 to Array.length kids - 1 do
          let pj = p lv j in
          if pj <> 0.0 then acc := !acc +. (pj *. value.(kids.(j)))
        done;
        value.(x) <- !acc)
      buckets.(lv)
  done;
  value.(n)

let sweep_counter = Obs.counter "mdd.sweep.runs"

let probability_sweep t n ~nk ~p =
  if nk < 1 then invalid_arg "Mdd.probability_sweep: nk must be positive";
  t.sweeps <- t.sweeps + 1;
  Obs.incr sweep_counter;
  if n = zero then Array.make nk 0.0
  else if n = one then Array.make nk 1.0
  else begin
    (* Edge-probability vectors, fetched once per (level, value) pair that
       actually occurs in the cone. *)
    let pv = Array.make (num_mvars t) [||] in
    let pvec lv =
      if pv.(lv) = [||] then
        pv.(lv) <-
          Array.init t.specs.(lv).domain (fun j ->
              let v = p lv j in
              if Array.length v < nk then
                invalid_arg "Mdd.probability_sweep: probability vector shorter than nk";
              v);
      pv.(lv)
    in
    let buckets = cone_by_level t n in
    let value = Array.make t.used [||] in
    for lv = num_mvars t - 1 downto 0 do
      let vecs = if buckets.(lv) = [] then [||] else pvec lv in
      List.iter
        (fun x ->
          let kids = t.kids.(x) in
          let acc = Array.make nk 0.0 in
          for j = 0 to Array.length kids - 1 do
            let c = kids.(j) in
            if c <> zero then begin
              let pj = vecs.(j) in
              if c = one then
                for k = 0 to nk - 1 do
                  acc.(k) <- acc.(k) +. pj.(k)
                done
              else begin
                let cv : float array = value.(c) in
                for k = 0 to nk - 1 do
                  acc.(k) <- acc.(k) +. (pj.(k) *. cv.(k))
                done
              end
            end
          done;
          value.(x) <- acc)
        buckets.(lv)
    done;
    value.(n)
  end

let probability_with_sensitivities t n ~p =
  let nvars = num_mvars t in
  let buckets = cone_by_level t n in
  (* Upward sweep: value of every node in the cone, bottom level first. *)
  let value = terminal_values t in
  for lv = nvars - 1 downto 0 do
    List.iter
      (fun x ->
        let kids = t.kids.(x) in
        let acc = ref 0.0 in
        for j = 0 to Array.length kids - 1 do
          acc := !acc +. (p lv j *. value.(kids.(j)))
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
    Array.init nvars (fun v -> Array.make t.specs.(v).domain 0.0)
  in
  for lv = 0 to nvars - 1 do
    List.iter
      (fun x ->
        let r = reach.(x) in
        if r <> 0.0 then begin
          let kids = t.kids.(x) in
          for j = 0 to Array.length kids - 1 do
            sens.(lv).(j) <- sens.(lv).(j) +. (r *. value.(kids.(j)));
            if not (is_terminal kids.(j)) then
              reach.(kids.(j)) <- reach.(kids.(j)) +. (r *. p lv j)
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
    let j = Int_vec.get stack top in
    let kids = t.kids.(x) in
    if j < Array.length kids then begin
      Int_vec.set stack top (j + 1);
      visit kids.(j)
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

(* Table-occupancy snapshot at publish time: [Hashtbl.stats] already
   carries the chain-length distribution of the unique table; the APPLY
   cache is a linear scan of its tag array. *)
let snapshot_occupancy (t : t) =
  let st = Tbl.stats t.table in
  Memory.record_occupancy ~name:"mdd.unique" ~used:st.Hashtbl.num_bindings
    ~capacity:st.Hashtbl.num_buckets;
  Memory.observe_chain_lengths ~name:"mdd.unique" st.Hashtbl.bucket_histogram;
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
          t.kids.(x);
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
