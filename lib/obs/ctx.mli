(** Ambient request identity, joining metrics, logs and traces.

    The serve daemon mints a monotonic request id per protocol message;
    this module carries that id {e ambiently} so every {!Trace} event and
    {!Log} record emitted while the request runs is stamped with it — one
    Perfetto capture of a busy multi-domain server can then be sliced per
    request, and a slow-query log line can be joined to its timeline spans.

    The binding is per {e thread} (not per domain): connection handlers are
    sys-threads sharing one domain, and work crosses domains only through
    [Pool.Executor] jobs and task drains (a [Socy_bdd.Par] team runs on
    one), which capture the submitter's context and re-install it around
    the job with {!with_restored}. Reads are lock-free (one atomic load and a small map
    lookup); installs are compare-and-set. A thread with no installed
    context reads [None] — nothing is stamped, nothing is paid. *)

(** [get ()] is the request id installed on the calling thread, if any. *)
val get : unit -> int option

(** [set rid] installs (or, with [None], clears) the calling thread's
    context. Prefer the scoped {!with_request}/{!with_restored}. *)
val set : int option -> unit

(** [with_request rid f] runs [f ()] with request id [rid] installed on the
    calling thread, restoring the previous binding afterwards — also when
    [f] raises. *)
val with_request : int -> (unit -> 'a) -> 'a

(** [with_restored ctx f] runs [f ()] under a context captured earlier with
    {!get} — the re-install half of cross-domain propagation: capture at
    submission, restore inside the job body on the worker. *)
val with_restored : int option -> (unit -> 'a) -> 'a
