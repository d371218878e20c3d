(** Parallel ROBDD construction: [Manager]'s algorithm layer re-hosted
    on the concurrent {!Store}, with per-domain computed caches and
    frontier-split work distribution over a {!Par} team.

    Operations return canonical handles in the same encoding as
    [Manager] (complement bit in bit 0; [not_] is free), but there is no
    refcounting — the store is append-only for the build's lifetime.
    Results are bit-identical in structure to the sequential engine's;
    {!import} moves a finished diagram into a sequential [Manager] so
    all downstream consumers run unchanged.

    Budget trips raise [Manager.Node_limit_exceeded] /
    [Manager.Cpu_limit_exceeded] on whichever domain hits them first and
    propagate to the others; the store stays structurally consistent
    (every published node is complete), so the owning pipeline can
    simply drop it. *)

type t
type node = int

val one : node
val zero : node

val create :
  ?node_limit:int ->
  ?cpu_limit:float ->
  ?cache_bits:int ->
  team:Par.t ->
  num_vars:int ->
  unit ->
  t
(** [cache_bits] (1–28, default 18) is the sequential cap; the per-domain
    caps are scaled down by the team size (to no less than [2^14] lines)
    so total cache memory stays level. Each domain's cache starts at 4096
    lines and doubles, like [Manager]'s, once a miss finds more nodes in
    the store than it has lines (checked every 1024 misses). Raises
    [Invalid_argument] when [cache_bits] is outside 1–28. *)

val store : t -> Store.t
val team : t -> Par.t

val var : t -> int -> node
val not_ : t -> node -> node
val and_ : t -> node -> node -> node
val or_ : t -> node -> node -> node
val xor_ : t -> node -> node -> node
val ite : t -> node -> node -> node -> node

val import : t -> node -> Manager.t -> Manager.node
(** [import t root m] deterministically re-creates the cone of [root]
    inside [m] (children-first DFS, one [Manager.mk] per physical node)
    and returns the root's manager handle, owned by the caller. *)

val created : t -> int
(** Total store nodes ever created — the parallel peak/created figure
    reported in place of the sequential engine's. *)

val cache_hits : t -> int
val cache_misses : t -> int

val publish_obs : t -> unit
(** Publish store shard counters and the aggregated per-domain cache
    counters. Once per build. *)
