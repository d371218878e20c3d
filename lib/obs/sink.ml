(* --- pretty ------------------------------------------------------------- *)

let pretty oc ~label (snap : Obs.snapshot) =
  let pf fmt = Printf.fprintf oc fmt in
  pf "== metrics: %s ==\n" label;
  let section name rows =
    if rows <> [] then begin
      pf "%s:\n" name;
      let width =
        List.fold_left (fun w (k, _) -> max w (String.length k)) 0 rows
      in
      List.iter (fun (k, v) -> pf "  %-*s  %s\n" width k v) rows
    end
  in
  section "counters"
    (List.filter_map
       (fun (k, v) -> if v = 0 then None else Some (k, string_of_int v))
       snap.Obs.counters);
  section "gauges"
    (List.filter_map
       (fun (k, (g : Obs.gauge_stat)) ->
         if g.Obs.g_samples = 0 then None
         else
           Some
             ( k,
               Printf.sprintf "last %g  min %g  max %g  (%d samples)"
                 g.Obs.g_last g.Obs.g_min g.Obs.g_max g.Obs.g_samples ))
       snap.Obs.gauges);
  section "histograms"
    (List.filter_map
       (fun (k, (h : Obs.histogram_stat)) ->
         if h.Obs.h_count = 0 then None
         else
           Some
             ( k,
               Printf.sprintf
                 "count %d  sum %g  min %g  max %g  mean %g  p50 %g  p90 %g  p99 %g"
                 h.Obs.h_count h.Obs.h_sum h.Obs.h_min h.Obs.h_max
                 (h.Obs.h_sum /. float_of_int h.Obs.h_count)
                 h.Obs.h_p50 h.Obs.h_p90 h.Obs.h_p99 ))
       snap.Obs.histograms);
  section "spans"
    (List.filter_map
       (fun (k, (s : Obs.span_stat)) ->
         if s.Obs.s_count = 0 then None
         else
           Some
             ( k,
               Printf.sprintf "%9.6f s total  x%d  (min %.6f, max %.6f)"
                 s.Obs.s_total s.Obs.s_count s.Obs.s_min s.Obs.s_max ))
       snap.Obs.spans);
  flush oc

(* --- json --------------------------------------------------------------- *)

(* min/max of never-updated instruments are +/-inf sentinels; JSON would
   render them as null, emit 0 instead so consumers get plain numbers. *)
let finite f = if Float.is_finite f then f else 0.0

let snapshot_to_json (snap : Obs.snapshot) =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.Obs.counters) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (k, (g : Obs.gauge_stat)) ->
               ( k,
                 Json.Obj
                   [
                     ("last", Json.Float g.Obs.g_last);
                     ("min", Json.Float (finite g.Obs.g_min));
                     ("max", Json.Float (finite g.Obs.g_max));
                     ("samples", Json.Int g.Obs.g_samples);
                   ] ))
             snap.Obs.gauges) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, (h : Obs.histogram_stat)) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int h.Obs.h_count);
                     ("sum", Json.Float h.Obs.h_sum);
                     ("min", Json.Float (finite h.Obs.h_min));
                     ("max", Json.Float (finite h.Obs.h_max));
                     ("p50", Json.Float (finite h.Obs.h_p50));
                     ("p90", Json.Float (finite h.Obs.h_p90));
                     ("p99", Json.Float (finite h.Obs.h_p99));
                     ( "buckets",
                       Json.List
                         (List.map
                            (fun (bound, c) ->
                              Json.Obj
                                [
                                  ( "le",
                                    if Float.is_finite bound then Json.Float bound
                                    else Json.String "inf" );
                                  ("count", Json.Int c);
                                ])
                            h.Obs.h_buckets) );
                   ] ))
             snap.Obs.histograms) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (k, (s : Obs.span_stat)) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int s.Obs.s_count);
                     ("total_s", Json.Float s.Obs.s_total);
                     ("min_s", Json.Float (finite s.Obs.s_min));
                     ("max_s", Json.Float (finite s.Obs.s_max));
                   ] ))
             snap.Obs.spans) );
    ]
