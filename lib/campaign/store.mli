(** The on-disk campaign artifact store.

    A store is a plain directory; each run is a subdirectory named
    [<name>-<UTC second stamp>Z] (with [".2"], [".3"]… suffixes on
    same-second collisions) holding a [campaign.json] document plus
    optional [metrics.json] and [trace.json]. Run ids sort
    chronologically as strings, so a directory listing {e is} the run
    history — no index file to corrupt. Foreign files in the store root
    are ignored.

    Probes: [campaign.store.writes] counts files written,
    [campaign.store.runs_listed] counts runs returned by listings,
    [campaign.store.deletes] counts runs removed by {!delete_run}. *)

type entry = { id : string; dir : string }

val campaign_basename : string
(** ["campaign.json"] *)

val run_id : name:string -> now:float -> string
(** The id a run started at Unix time [now] would get (before
    collision suffixes). *)

val create_run : root:string -> name:string -> ?now:float -> unit -> entry
(** Create (mkdir -p) a fresh run directory under [root]. [now]
    defaults to the current time. *)

val campaign_file : entry -> string
(** Path of the run's [campaign.json]. *)

val write_run :
  entry -> ?metrics:Socy_obs.Json.t -> ?trace:Socy_obs.Json.t -> Socy_obs.Json.t -> unit
(** [write_run e doc] writes [doc] as the run's [campaign.json], plus
    [metrics.json] / [trace.json] when given. *)

val list_runs : root:string -> entry list
(** Every run in the store, oldest first. A missing or unreadable root
    is an empty store, not an error. *)

val run_timestamp : string -> float option
(** The Unix time encoded in a run id's UTC stamp (collision suffixes
    stripped); [None] when the id does not end in a well-formed stamp. *)

val delete_run : entry -> (unit, string) result
(** Remove the run's directory: every regular file inside, then the
    directory itself. Never recursive — a run directory is flat. *)

val load_json : entry -> (Socy_obs.Json.t, string) result
(** Read and parse the run's [campaign.json]. *)
