(** Compiling gate-level circuits into ROBDDs.

    Gates are processed by {!Socy_logic.Circuit.fold}, in its depth-first
    postorder, with its n-ary rule {!Socy_logic.Circuit.reduce}; every
    gate's BDD is kept alive exactly while some not-yet-processed gate
    still needs it (the fold's last-use report), which is what makes the
    manager's [peak_alive] statistic match the paper's "maximum number of
    ROBDD nodes held simultaneously while processing the generalized fault
    tree". *)

type stats = {
  peak_nodes : int;  (** manager live-node high-water mark during the build *)
  final_size : int;  (** nodes reachable from the result *)
  created : int;  (** total node creations (work measure) *)
  gc_runs : int;
  reorders : int;  (** sift runs triggered during the build *)
  reorder_swaps : int;  (** adjacent-level swaps performed by those runs *)
}

(** [of_circuit m circuit ~var_of_input] builds the ROBDD of the circuit
    output inside manager [m], mapping circuit input [i] to manager variable
    [var_of_input i]. Returns an owned root and build statistics.

    [gc_threshold] (default [500_000]): a garbage collection runs between
    gates whenever at least that many dead nodes have accumulated.

    [reorder] (default [false]): when set, {!Manager.sift} runs between
    gates whenever the live-node count crosses a doubling threshold
    (initially 4,096 live nodes; after each sift the threshold becomes
    twice the post-sift size, and never less than 4,096). In-place sifting keeps
    every intermediate gate handle valid, so the build is unaffected apart
    from the variable order. Honours any group metadata previously
    installed with {!Manager.set_groups}.

    When {!Socy_obs.Obs} is enabled, the build runs inside a [bdd.compile]
    span with one nested span per gate kind ([gate.and], [gate.or], …) and
    counts processed gates in [bdd.compile.gates].

    Raises {!Manager.Node_limit_exceeded} when the manager's node limit is
    hit. *)
val of_circuit :
  ?gc_threshold:int ->
  ?reorder:bool ->
  Manager.t ->
  Socy_logic.Circuit.t ->
  var_of_input:(int -> int) ->
  Manager.node * stats

(** [of_circuit_par pb m circuit ~var_of_input] — the same walk, but through {!Pbdd} operations so the [Par] team inside [pb]
    builds the diagram concurrently; the finished root is then imported
    into the sequential manager [m] and returned owned, exactly like
    {!of_circuit}'s result. The concurrent store is append-only, so
    [peak_nodes] = [created] (total store nodes) and [gc_runs] /
    [reorders] are 0. Hash-consing makes the imported diagram canonical,
    hence bit-identical in structure to a sequential build under the
    same ordering.

    Raises [Manager.Node_limit_exceeded] / [Manager.Cpu_limit_exceeded]
    when [pb]'s budgets trip (on any domain). *)
val of_circuit_par :
  Pbdd.t ->
  Manager.t ->
  Socy_logic.Circuit.t ->
  var_of_input:(int -> int) ->
  Manager.node * stats
