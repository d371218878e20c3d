(** Kept only for socybench's traced [table4-par] run, which names
    [create], [created] and {!Compile.of_circuit_par}; the benchmark change
    that redefines [table4-par] deletes it. The build runs on the caller's
    sequential {!Manager}, whose limits apply; [create] ignores its
    arguments. *)

type t = { mutable created : int }

val create :
  ?node_limit:int -> ?cpu_limit:float -> ?cache_bits:int -> team:Par.t -> num_vars:int -> unit -> t

val created : t -> int
(** Nodes the last {!Compile.of_circuit_par} build created. *)
