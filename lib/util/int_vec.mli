(** Growable [int] arrays.

    The decision-diagram walks keep their explicit stacks here, so a walk
    as deep as the diagram uses no OCaml stack. Amortized O(1) push, O(1)
    pop and random access. *)

type t

(** [create ?capacity ()] is an empty vector. *)
val create : ?capacity:int -> unit -> t

(** Number of stored elements. *)
val length : t -> int

(** [get v i]; raises [Invalid_argument] when out of bounds. *)
val get : t -> int -> int

(** [set v i x]; raises [Invalid_argument] when out of bounds. *)
val set : t -> int -> int -> unit

(** [push v x] appends [x] and returns its index. *)
val push : t -> int -> int

(** [pop v] removes and returns the last element; raises
    [Invalid_argument] when [v] is empty. *)
val pop : t -> int
