(** Renderings of {!Obs} snapshots: human-readable tables and JSON. *)

(** [pretty oc ~label snap] renders aligned, human-readable sections to
    [oc] under a heading naming [label], the run or section the snapshot
    belongs to. Empty sections are omitted. *)
val pretty : out_channel -> label:string -> Obs.snapshot -> unit

(** [snapshot_to_json snap] is the canonical JSON rendering of a snapshot:
    an object with [counters], [gauges], [histograms] and [spans] members,
    each instrument keyed by name. Zero-valued instruments are included —
    consumers can rely on registered names being present. *)
val snapshot_to_json : Obs.snapshot -> Json.t
