(* Clocks, quantiles, process counters and the result line. *)

let now = Unix.gettimeofday

(* Regularized incomplete beta I_x(a, b), by the continued fraction of
   Numerical Recipes (betacf, modified Lentz). *)
let incomplete_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else begin
    let cf a b x =
      let tiny = 1e-300 in
      let c = ref 1.0 and d = ref (1.0 -. ((a +. b) *. x /. (a +. 1.0))) in
      if Float.abs !d < tiny then d := tiny;
      d := 1.0 /. !d;
      let h = ref !d in
      (try
         for m = 1 to 300 do
           let m = float_of_int m in
           let step num =
             d := 1.0 +. (num *. !d);
             if Float.abs !d < tiny then d := tiny;
             c := 1.0 +. (num /. !c);
             if Float.abs !c < tiny then c := tiny;
             d := 1.0 /. !d;
             !d *. !c
           in
           h := !h *. step (m *. (b -. m) *. x /. ((a +. (2.0 *. m) -. 1.0) *. (a +. (2.0 *. m))));
           let del = step (-.(a +. m) *. (a +. b +. m) *. x /. ((a +. (2.0 *. m)) *. (a +. (2.0 *. m) +. 1.0))) in
           h := !h *. del;
           if Float.abs (del -. 1.0) < 1e-14 then raise Exit
         done
       with Exit -> ());
      !h
    in
    let lg = Socy_util.Specfun.log_gamma in
    let front = exp (lg (a +. b) -. lg a -. lg b +. (a *. log x) +. (b *. log (1.0 -. x))) in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. cf a b x /. a
    else 1.0 -. (front *. cf b a (1.0 -. x) /. b)
  end

(* Harrell-Davis quantile, [q] in (0, 1): a Beta-weighted mean of all
   order statistics. Unlike a single order statistic it moves smoothly as
   samples shift, so a gap between input classes (a cheap row and a costly
   one) does not make the estimate jump from run to run. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let nf = float_of_int n in
    let a = q *. (nf +. 1.0) and b = (1.0 -. q) *. (nf +. 1.0) in
    let acc = ref 0.0 and prev = ref 0.0 in
    for i = 1 to n do
      let cdf = incomplete_beta a b (float_of_int i /. nf) in
      acc := !acc +. ((cdf -. !prev) *. s.(i - 1));
      prev := cdf
    done;
    !acc
  end

let median xs = quantile 0.5 (Array.of_list xs)
let mean xs = if xs = [] then 0.0 else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A seeded Fisher-Yates shuffle of a copy of [a]. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Socy_util.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Process high-water resident set (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Reset the high-water mark to the current resident set (Linux >= 4.0),
   so that it can be read per measurement window. Where the kernel refuses,
   every window reads the process-wide mark. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* A set-up timed from a compacted heap, so that every set-up starts from
   the same memory state. *)
let timed_setup f =
  Gc.compact ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Extra set-ups, timed and torn down, made after the measurement so that
   the measured run inherits the heap and allocator state of a single
   set-up. [setup_s] is the median over the first set-up and these. *)
let more_setups k ~setup ~teardown =
  List.init k (fun _ ->
      let s, dt = timed_setup setup in
      teardown s;
      dt)

(* Call [pass] until [seconds] of wall time have gone by; each pass is a
   whole round over the workload's inputs, so every input is measured the
   same number of times. Before each pass, off the clock, the heap is
   compacted: every pass starts from the same clean heap, as a fresh
   process would. Returns, per pass, its measured seconds and its
   resident-set high-water mark. *)
type pass = { seconds : float; rss_peak : float }

let run_passes ~seconds pass =
  let t0 = now () in
  let rec go i acc =
    Gc.compact ();
    reset_peak_rss ();
    let p0 = now () in
    pass i;
    let acc = { seconds = now () -. p0; rss_peak = peak_rss_mb () } :: acc in
    if now () -. t0 < seconds then go (i + 1) acc else List.rev acc
  in
  go 0 []

(* Median over windows of completions per second. *)
let median_rate windows = median (List.map (fun (count, secs) -> float_of_int count /. secs) windows)

(* Per-input medians of keyed samples, in key order. *)
let per_key_medians samples =
  let t = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace t k (v :: Option.value (Hashtbl.find_opt t k) ~default:[])) samples;
  Hashtbl.fold (fun k vs acc -> (k, median vs) :: acc) t [] |> List.sort compare |> List.map snd |> Array.of_list

type gc_window = { minor : int; major : int; promoted_words : float }

let gc_sample () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections; promoted_words = s.Gc.promoted_words }

let gc_delta a b =
  { minor = b.minor - a.minor; major = b.major - a.major; promoted_words = b.promoted_words -. a.promoted_words }

(* GC activity summed over measured windows only (compactions made off
   the clock between windows are left out). *)
let gc_zero = { minor = 0; major = 0; promoted_words = 0.0 }

let gc_window acc f =
  let g0 = gc_sample () in
  let r = f () in
  let d = gc_delta g0 (gc_sample ()) in
  acc := { minor = !acc.minor + d.minor; major = !acc.major + d.major; promoted_words = !acc.promoted_words +. d.promoted_words };
  r

let promoted_mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Every result that a workload times is checked; [check] records the
   verdict and prints the first few failures. *)
type tally = { mutable attempted : int; mutable failed : int; mutable shown : int }

let tally () = { attempted = 0; failed = 0; shown = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.shown < 10 then begin
      t.shown <- t.shown + 1;
      Printf.printf "# WRONG %s\n%!" what
    end
  end

(* Checks made off the clock: they can fail the run, but are not timed
   results, so they do not count as attempted. *)
let verify t ok what =
  if not ok then begin
    t.failed <- t.failed + 1;
    t.attempted <- max t.attempted t.failed;
    Printf.printf "# WRONG (off-clock check) %s\n%!" what
  end

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)
