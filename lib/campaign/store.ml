module Json = Socy_obs.Json
module Obs = Socy_obs.Obs

let store_writes = Obs.counter "campaign.store.writes"
let store_runs_listed = Obs.counter "campaign.store.runs_listed"
let store_deletes = Obs.counter "campaign.store.deletes"

type entry = { id : string; dir : string }

let campaign_basename = "campaign.json"
let metrics_basename = "metrics.json"
let trace_basename = "trace.json"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run ids sort chronologically as strings (UTC second stamp), so the
   store needs no index file: a directory listing is the history. *)
let run_id ~name ~now =
  let tm = Unix.gmtime now in
  Printf.sprintf "%s-%04d%02d%02dT%02d%02d%02dZ" name (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let entry ~root ~id = { id; dir = Filename.concat root id }

(* Two runs inside one second (tests, tight CI loops) get a ".2", ".3"…
   suffix instead of silently overwriting the earlier artifact. *)
let create_run ~root ~name ?(now = Unix.gettimeofday ()) () =
  let base = run_id ~name ~now in
  let rec fresh i =
    let id = if i = 1 then base else Printf.sprintf "%s.%d" base i in
    let e = entry ~root ~id in
    if Sys.file_exists e.dir then fresh (i + 1)
    else begin
      mkdir_p e.dir;
      e
    end
  in
  fresh 1

let campaign_file e = Filename.concat e.dir campaign_basename

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Json.to_channel oc json);
  Obs.incr store_writes

let write_run e ?metrics ?trace doc =
  write_json (campaign_file e) doc;
  Option.iter (write_json (Filename.concat e.dir metrics_basename)) metrics;
  Option.iter (write_json (Filename.concat e.dir trace_basename)) trace

(* Every direct subdirectory holding a campaign.json, sorted by id —
   i.e. chronologically, with same-second ".n" suffixes in creation
   order. Foreign files in the root are ignored, not errors: operators
   drop READMEs and tarballs into artifact stores. *)
let list_runs ~root =
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | names ->
      let runs =
        Array.to_list names
        |> List.filter_map (fun id ->
               let e = entry ~root ~id in
               if Sys.file_exists (campaign_file e) then Some e else None)
        |> List.sort (fun a b -> compare a.id b.id)
      in
      Obs.add store_runs_listed (List.length runs);
      runs

(* Civil-date arithmetic (Howard Hinnant's days_from_civil), so the id's
   UTC stamp round-trips to an epoch without touching the local timezone
   (Unix.mktime interprets broken-down time as local). *)
let days_from_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let run_timestamp id =
  (* Strip a same-second collision suffix (".2", ".3", …) first. *)
  let id =
    match String.rindex_opt id '.' with
    | Some i
      when i < String.length id - 1
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub id (i + 1) (String.length id - i - 1)) ->
        String.sub id 0 i
    | _ -> id
  in
  let stamp_len = String.length "-00000000T000000Z" in
  if String.length id <= stamp_len then None
  else
    let stamp = String.sub id (String.length id - stamp_len) stamp_len in
    match
      Scanf.sscanf stamp "-%4d%2d%2dT%2d%2d%2dZ%!" (fun y mo d h mi s ->
          (y, mo, d, h, mi, s))
    with
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
    | y, mo, d, h, mi, s ->
        if mo < 1 || mo > 12 || d < 1 || d > 31 || h > 23 || mi > 59 || s > 60
        then None
        else
          Some
            (float_of_int
               ((days_from_civil y mo d * 86400) + (h * 3600) + (mi * 60) + s))

(* Run directories are flat (campaign.json + optional siblings), so
   deletion is unlink-every-regular-file + rmdir — never recursive, so a
   mis-pointed store cannot cascade. *)
let delete_run e =
  match Sys.readdir e.dir with
  | exception Sys_error msg -> Error msg
  | names -> (
      let first_err = ref None in
      Array.iter
        (fun n ->
          let p = Filename.concat e.dir n in
          if not (Sys.is_directory p) then
            try Sys.remove p
            with Sys_error msg ->
              if !first_err = None then first_err := Some msg)
        names;
      match !first_err with
      | Some msg -> Error msg
      | None -> (
          match Unix.rmdir e.dir with
          | () ->
              Obs.incr store_deletes;
              Ok ()
          | exception Unix.Unix_error (err, _, _) ->
              Error
                (Printf.sprintf "%s: %s" e.dir (Unix.error_message err))))

let load_json e =
  let path = campaign_file e in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.of_string contents with
      | json -> Ok json
      | exception Json.Parse_error msg ->
          Error (Printf.sprintf "%s: %s" path msg))
