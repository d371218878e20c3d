module C = Socy_logic.Circuit
module Obs = Socy_obs.Obs

type stats = {
  peak_nodes : int;
  final_size : int;
  created : int;
  gc_runs : int;
  reorders : int;
  reorder_swaps : int;
}

(* The first sift runs once this many nodes are alive. *)
let reorder_threshold = 4_096

(* Static span names: per-gate tracing must not allocate per gate. *)
let gate_span = function
  | C.And -> "gate.and"
  | C.Or -> "gate.or"
  | C.Xor -> "gate.xor"
  | C.Not -> "gate.not"
  | C.Nand -> "gate.nand"
  | C.Nor -> "gate.nor"
  | C.Xnor -> "gate.xnor"

let of_circuit ?(gc_threshold = 500_000) ?(reorder = false) m circuit ~var_of_input =
  Manager.reset_peak m;
  let created_before = Manager.created_total m in
  let gc_before = Manager.gc_count m in
  let rstats_before = Manager.reorder_stats m in
  (* CUDD-style doubling schedule: sift once the live count crosses the
     threshold, then push the threshold to twice the post-sift size so a
     converged build stops paying for reordering. *)
  let next_reorder = ref reorder_threshold in
  let between_nodes _ =
    if Manager.dead m >= gc_threshold then Manager.collect m;
    if reorder && Manager.alive m >= !next_reorder then begin
      Manager.sift m;
      next_reorder := max (2 * Manager.alive m) reorder_threshold
    end
  in
  (* Each gate's BDD is owned from its step until its last consumer has
     been built; the output's stays owned and passes to the caller. The
     fold's accumulator is owned, so each operation drops its left
     operand. *)
  let consume op a b =
    let r = op m a b in
    Manager.deref m a;
    r
  in
  let ops =
    {
      C.and_ = consume Manager.and_;
      or_ = consume Manager.or_;
      xor_ = consume Manager.xor_;
      not_ =
        (fun a ->
          let r = Manager.not_ m a in
          Manager.deref m a;
          r);
      own =
        (fun a ->
          Manager.ref_ m a;
          a);
    }
  in
  let gates_counter = Obs.counter "bdd.compile.gates" in
  let value =
    Obs.with_span "bdd.compile" (fun () ->
        C.fold circuit
          ~last_use:(fun _ bdd -> Manager.deref m bdd)
          ~after:between_nodes
          (fun n value ->
            match n.C.desc with
            | C.Input i -> Manager.var m (var_of_input i)
            | C.Const false -> Manager.zero
            | C.Const true -> Manager.one
            | C.Gate (kind, args) ->
                let bdd =
                  Obs.with_span (gate_span kind) (fun () ->
                      C.reduce ops kind args value)
                in
                Obs.incr gates_counter;
                bdd))
  in
  let root = value circuit.C.output in
  let rstats_after = Manager.reorder_stats m in
  let stats =
    {
      peak_nodes = Manager.peak_alive m;
      final_size = Manager.size m root;
      created = Manager.created_total m - created_before;
      gc_runs = Manager.gc_count m - gc_before;
      reorders = rstats_after.Manager.runs - rstats_before.Manager.runs;
      reorder_swaps =
        rstats_after.Manager.swaps - rstats_before.Manager.swaps;
    }
  in
  (root, stats)

(* Parallel compilation: the same walk, but over [Pbdd] operations into the
   concurrent store — no refcounting, no GC, no reordering (the store is
   append-only; [peak_nodes] = [created] is the honest peak analog). The
   finished root is imported into [m], so the caller receives exactly what
   [of_circuit] would have handed it: an owned root in a sequential
   manager, plus build stats. *)
let of_circuit_par pb m circuit ~var_of_input =
  Manager.reset_peak m;
  let ops =
    {
      C.and_ = Pbdd.and_ pb;
      or_ = Pbdd.or_ pb;
      xor_ = Pbdd.xor_ pb;
      not_ = Pbdd.not_ pb;
      own = Fun.id;
    }
  in
  let gates_counter = Obs.counter "bdd.compile.gates" in
  let value =
    Obs.with_span "bdd.compile.par" (fun () ->
        C.fold circuit (fun n value ->
            match n.C.desc with
            | C.Input i -> Pbdd.var pb (var_of_input i)
            | C.Const false -> Pbdd.zero
            | C.Const true -> Pbdd.one
            | C.Gate (kind, args) ->
                let r = C.reduce ops kind args value in
                Obs.incr gates_counter;
                r))
  in
  let proot = value circuit.C.output in
  let root = Obs.with_span "bdd.import" (fun () -> Pbdd.import pb proot m) in
  let created = Pbdd.created pb in
  let stats =
    {
      peak_nodes = created;
      final_size = Manager.size m root;
      created;
      gc_runs = 0;
      reorders = 0;
      reorder_swaps = 0;
    }
  in
  (root, stats)
