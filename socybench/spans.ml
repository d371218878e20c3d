(* In-memory span recorder for the traced run.

   A span is one call into a layer: name, start, end, the span that
   caused it and the evaluation (or request) it belongs to. Spans are
   kept in memory and written out once, at the end of the run. While
   recording is off, [span name f] is exactly [f ()]: the untraced run
   pays nothing. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* 0 = root *)
  eval : int;  (* evaluation / request id, 0 = none *)
  domain : int;
  t0 : float;
  t1 : float;
}

let recording = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* Per-domain stack of open span ids and the current evaluation id. *)
let stack_key = Domain.DLS.new_key (fun () -> ref [])
let eval_key = Domain.DLS.new_key (fun () -> ref 0)

let push s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let fresh_id () = Atomic.fetch_and_add next_id 1

(* A root span measured by the caller's own clock reads. *)
let record ~name ~eval ~t0 ~t1 =
  if !recording then
    push
      {
        id = fresh_id ();
        name;
        parent = 0;
        eval;
        domain = (Domain.self () :> int);
        t0;
        t1;
      }

let span name f =
  if not !recording then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let eval = !(Domain.DLS.get eval_key) in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      push { id; name; parent; eval; domain = (Domain.self () :> int); t0; t1 }
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Run [f] with every span it opens on this domain stamped with [eval]. *)
let with_eval eval f =
  let cur = Domain.DLS.get eval_key in
  let saved = !cur in
  cur := eval;
  Fun.protect ~finally:(fun () -> cur := saved) f

let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.rev l

(* Self time per span name, in seconds: each span's duration minus the
   part of it that its children cover. Children of one span never overlap
   (they run on the parent's domain, one after the other). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let prev = Option.value (Hashtbl.find_opt self s.name) ~default:0.0 in
      Hashtbl.replace self s.name (prev +. (s.t1 -. s.t0 -. covered)))
    spans;
  self

let self_of table name = Option.value (Hashtbl.find_opt table name) ~default:0.0

(* Chrome trace-event JSON ("X" complete events, microseconds): opens in
   Perfetto or chrome://tracing, one row per domain. *)
let write_chrome path spans =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"eval\":%d}}"
        s.name s.domain
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.eval)
    spans;
  output_string oc "\n]}\n";
  close_out oc
