(** Memory and GC accounting for pipeline stages and DD-engine tables.

    The paper's scaling argument is as much about memory as about CPU:
    ROBDD peaks decide which rows die with "—". This module adds the two
    measurements {!Obs} lacked:

    - {e OCaml-GC deltas per stage} — [Gc.minor_words], [Gc.counters]
      and [Gc.quick_stat] sampled around a stage give minor/major
      collection counts and allocation volumes, so a report can say
      "robdd-build promoted 40 MB" instead of only "took 3.1 s".
      Sampling is a few loads; it is done unconditionally (the
      pipeline reports carry the deltas whether or not {!Obs} is enabled),
      while {e publication} into the registry/timeline respects the flag.
    - {e DD-table occupancy} — gauges and histograms describing how full
      the engines' unique tables and computed caches are
      ([table.occupancy.*] probes), published from the engines'
      [publish_obs] checkpoints.

    The word counts are the calling domain's, read at the time of the
    call ([Gc.quick_stat]'s may lag until the next minor collection), so
    under a parallel batch a stage's delta describes the domain that ran
    it, which is exactly the per-worker reading the timeline wants. *)

(** {1 GC deltas} *)

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** words surviving into the major heap *)
  major_words : float;  (** words allocated directly in the major heap *)
  heap_words : int;
      (** major-heap growth over the window (negative when a collection
          shrank it) *)
  top_heap_words : int;
      (** growth of the process high-water mark over the window — the
          window's own contribution to the peak, 0 for stages that never
          pushed the heap past its previous maximum *)
}

(** An opaque sample of the GC counters. *)
type sample

(** [sample ()] reads the GC counters (cheap — no heap walk). *)
val sample : unit -> sample

(** [delta_since s] is the change from [s] to now — every field a true
    delta over the window, [heap_words]/[top_heap_words] included. *)
val delta_since : sample -> gc_delta

(** [with_gc_delta f] is [(f (), delta over the call)]. *)
val with_gc_delta : (unit -> 'a) -> 'a * gc_delta

(** [publish ?stage d] adds [d] to the [gc.*] registry probes (counters
    [gc.minor_collections], [gc.major_collections], [gc.promoted_words],
    [gc.minor_words]; the [gc.heap_words] / [gc.top_heap_words] gauges are
    set from a fresh sample's absolutes, not from [d]) and, when [stage]
    is given, drops a [gc.stage] instant on the timeline with the delta as
    args. No-op while disabled. *)
val publish : ?stage:string -> gc_delta -> unit

(** [delta_to_json d] renders a delta for report documents. *)
val delta_to_json : gc_delta -> Json.t

(** {1 Table occupancy}

    Naming convention: a table called [name] publishes
    [table.occupancy.<name>.used] / [.capacity] / [.load_factor] gauges and
    a [table.occupancy.<name>.chain_len] histogram (chained tables) or a
    [table.occupancy.<name>.probe_len] histogram (open addressing). The
    engines call these from their [publish_obs]. *)

(** [record_occupancy ~name ~used ~capacity] sets the three gauges.
    No-op while disabled or when [capacity = 0]. *)
val record_occupancy : name:string -> used:int -> capacity:int -> unit

(** [observe_chain_lengths ~name counts] records a whole chain-length
    distribution at once: [counts.(i) = number of buckets] whose chain is
    [i] long (the shape [Hashtbl.stats] returns). One registry lock per
    distinct length, not per bucket. No-op while disabled. *)
val observe_chain_lengths : name:string -> int array -> unit

(** [observe_probe_lengths ~name counts] records the probe-length
    distribution of an open-addressing table: [counts.(i)] entries are
    found on the [i]-th probe. No-op while disabled. *)
val observe_probe_lengths : name:string -> int array -> unit
