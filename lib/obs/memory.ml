(* GC deltas are computed from Gc.minor_words, Gc.counters and
   Gc.quick_stat — a handful of loads, no heap walk — so sampling is
   unconditional; only publication into the registry and the timeline
   checks the enabled flag.

   Word counts are the calling domain's at the time of the call. In OCaml
   5, quick_stat's word counts move only at a minor collection, so a stage
   between two of them read 0 words; and 5.1's Gc.counters reports one
   eighth of the minor words allocated since the last one, hence
   Gc.minor_words for those. *)

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  heap_words : int;
  top_heap_words : int;
}

type sample = {
  stat : Gc.stat;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

let sample () =
  let stat = Gc.quick_stat () in
  let _, promoted_words, major_words = Gc.counters () in
  { stat; minor_words = Gc.minor_words (); promoted_words; major_words }

let delta_since w0 =
  let w1 = sample () in
  let s0 = w0.stat and s1 = w1.stat in
  {
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
    compactions = s1.compactions - s0.compactions;
    minor_words = w1.minor_words -. w0.minor_words;
    promoted_words = w1.promoted_words -. w0.promoted_words;
    major_words = w1.major_words -. w0.major_words;
    (* Deltas like every other field: a stage's heap growth, not the
       process-global absolute (which made every per-stage reading
       identical and meaningless in reports). [heap_words] can be
       negative across a collection; [top_heap_words] is the stage's
       contribution to the high-water mark, usually 0. OCaml 5 computes
       the process figure as a sum of per-domain maxima, which drops when
       a finished domain's statistics are cleaned up; a drop is no
       contribution, hence the clamp. *)
    heap_words = s1.heap_words - s0.heap_words;
    top_heap_words = max 0 (s1.top_heap_words - s0.top_heap_words);
  }

let with_gc_delta f =
  let s0 = sample () in
  let r = f () in
  (r, delta_since s0)

let delta_to_json d =
  Json.Obj
    [
      ("minor_collections", Json.Int d.minor_collections);
      ("major_collections", Json.Int d.major_collections);
      ("compactions", Json.Int d.compactions);
      ("minor_words", Json.Float d.minor_words);
      ("promoted_words", Json.Float d.promoted_words);
      ("major_words", Json.Float d.major_words);
      ("heap_words", Json.Int d.heap_words);
      ("top_heap_words", Json.Int d.top_heap_words);
    ]

(* Registered eagerly, like every other probe: [publish] runs on whichever
   domain finishes a stage, and forcing one [lazy] from two domains at once
   raises [CamlinternalLazy.Undefined]. *)
let c_minor = Obs.counter "gc.minor_collections"
let c_major = Obs.counter "gc.major_collections"
let c_compactions = Obs.counter "gc.compactions"
let c_minor_words = Obs.counter "gc.minor_words"
let c_promoted_words = Obs.counter "gc.promoted_words"
let g_heap = Obs.gauge "gc.heap_words"
let g_top_heap = Obs.gauge "gc.top_heap_words"

let publish ?stage d =
  if Obs.enabled () then begin
    Obs.add c_minor (max 0 d.minor_collections);
    Obs.add c_major (max 0 d.major_collections);
    Obs.add c_compactions (max 0 d.compactions);
    Obs.add c_minor_words (max 0 (int_of_float d.minor_words));
    Obs.add c_promoted_words (max 0 (int_of_float d.promoted_words));
    (* The gauges stay absolutes (current heap, process high-water mark):
       a fresh sample, since the delta no longer carries them. *)
    let s = Gc.quick_stat () in
    Obs.set g_heap (float_of_int s.Gc.heap_words);
    Obs.set g_top_heap (float_of_int s.Gc.top_heap_words);
    match stage with
    | None -> ()
    | Some stage ->
        Trace.instant "gc.stage"
          ~args:[ ("stage", Json.String stage); ("delta", delta_to_json d) ]
  end

(* --- table occupancy ----------------------------------------------------- *)

let record_occupancy ~name ~used ~capacity =
  if Obs.enabled () && capacity > 0 then begin
    let p = "table.occupancy." ^ name in
    Obs.set (Obs.gauge (p ^ ".used")) (float_of_int used);
    Obs.set (Obs.gauge (p ^ ".capacity")) (float_of_int capacity);
    Obs.set (Obs.gauge (p ^ ".load_factor")) (float_of_int used /. float_of_int capacity)
  end

let chain_buckets = [| 0.0; 1.0; 2.0; 3.0; 4.0; 8.0; 16.0 |]

let observe_lengths metric ~name counts =
  if Obs.enabled () then begin
    let h = Obs.histogram ~buckets:chain_buckets ("table.occupancy." ^ name ^ metric) in
    Array.iteri (fun len n -> Obs.observe_many h (float_of_int len) n) counts
  end

let observe_chain_lengths = observe_lengths ".chain_len"
let observe_probe_lengths = observe_lengths ".probe_len"
