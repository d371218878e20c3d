module Json = Socy_obs.Json
module Obs = Socy_obs.Obs
module Bench = Socy_obs.Doc.Bench
module P = Socy_core.Pipeline
module Scheme = Socy_order.Scheme
module S = Socy_benchmarks.Suite
module D = Socy_defects.Distribution
module Model = Socy_defects.Model
module Text_table = Socy_util.Text_table

let schema = "socyield-campaign/1"

let ( let* ) = Result.bind

let runs_counter = Obs.counter "campaign.runs"
let wall_gauge = Obs.gauge "campaign.wall_s"

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type grid = {
  name : string;
  benchmarks : string list;
  lambdas : float list;
  epsilons : float list;
  mv_orders : Scheme.mv_order list;
  bit_order : Scheme.bit_order;
  alpha : float;
  node_limit : int;
  cpu_limit : float option;
  reorder : bool;
  par_domains : int;
}

type point = {
  source : string;
  lambda : float;
  epsilon : float;
  mv : Scheme.mv_order;
}

type failure_kind =
  | Node_budget_hit of int  (** live-node peak at failure *)
  | Cpu_budget_hit of float  (** elapsed CPU seconds at cut-off *)
  | Cancelled

type success = {
  m : int;
  yield_lower : float;
  yield_upper : float;
  robdd_peak : int;
  robdd_size : int;
  romdd_size : int;
  cpu_s : float;
}

type row = { point : point; result : (success, failure_kind) result }

type t = {
  grid : grid;
  created_s : float;
  domains : int;
  wall_s : float;
  rows : row list;
}

let point_label p =
  Printf.sprintf "%s l=%g e=%g %s" p.source p.lambda p.epsilon
    (Scheme.mv_order_name p.mv)

let status_name = function
  | Ok _ -> "ok"
  | Error (Node_budget_hit _) -> "node-budget"
  | Error (Cpu_budget_hit _) -> "cpu-budget"
  | Error Cancelled -> "cancelled"

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let points grid =
  List.concat_map
    (fun source ->
      List.concat_map
        (fun lambda ->
          List.concat_map
            (fun epsilon ->
              List.map
                (fun mv -> { source; lambda; epsilon; mv })
                grid.mv_orders)
            grid.epsilons)
        grid.lambdas)
    grid.benchmarks

let validate grid =
  (* Everything the defect model or the pipeline would reject is caught
     here, so [run] fails only with a typed [Error]. *)
  let require ok msg = if ok then Ok () else Error msg in
  let each_float ok what values =
    match List.find_opt (fun v -> not (ok v)) values with
    | None -> Ok ()
    | Some v -> Error (Printf.sprintf "%s (got %g)" what v)
  in
  let positive x = Float.is_finite x && x > 0.0 in
  let* () = require (grid.name <> "") "campaign name must not be empty" in
  let* () =
    require
      (not (String.exists (fun c -> c = '/' || c = '\\' || c = '\000') grid.name))
      (Printf.sprintf "campaign name %S must not contain '/'" grid.name)
  in
  let* () = require (grid.benchmarks <> []) "empty benchmark axis" in
  let* () =
    require
      (grid.lambdas <> [] && grid.epsilons <> [] && grid.mv_orders <> [])
      "empty sweep axis"
  in
  let* () =
    match
      List.find_opt
        (fun b -> match S.by_name b with _ -> false | exception Not_found -> true)
        grid.benchmarks
    with
    | Some b -> Error (Printf.sprintf "unknown benchmark %S" b)
    | None -> Ok ()
  in
  let* () = each_float positive "lambda must be positive and finite" grid.lambdas in
  let* () =
    each_float (fun e -> e > 0.0 && e < 1.0) "epsilon must lie in (0, 1)"
      grid.epsilons
  in
  let* () = each_float positive "alpha must be positive and finite" [ grid.alpha ] in
  let* () =
    require (grid.node_limit >= 1)
      (Printf.sprintf "node limit must be at least 1 (got %d)" grid.node_limit)
  in
  each_float (fun s -> s > 0.0) "cpu limit must be positive"
    (Option.to_list grid.cpu_limit)

let failure_of_pipeline = function
  | P.Node_budget { peak; _ } -> Node_budget_hit peak
  | P.Cpu_budget { elapsed; _ } -> Cpu_budget_hit elapsed
  | P.Batch_cancelled -> Cancelled

let job grid p =
  let instance = S.by_name p.source in
  let model =
    Model.create
      (D.negative_binomial ~mean:p.lambda ~alpha:grid.alpha)
      instance.S.affect
  in
  let config =
    P.Config.make ~epsilon:p.epsilon ~node_limit:grid.node_limit
      ?cpu_limit:grid.cpu_limit ~mv_order:p.mv ~bit_order:grid.bit_order
      ~reorder:grid.reorder ~par_domains:grid.par_domains ()
  in
  Socy_batch.job ~config ~label:(point_label p) instance.S.circuit
    (Model.to_lethal model)

let success_of_report (r : P.report) =
  {
    m = r.P.m;
    yield_lower = r.P.yield_lower;
    yield_upper = r.P.yield_upper;
    robdd_peak = r.P.robdd_peak;
    robdd_size = r.P.robdd_size;
    romdd_size = r.P.romdd_size;
    cpu_s = r.P.cpu_seconds;
  }

let run ?domains ?wall_budget ?progress ?(now = Unix.gettimeofday ()) grid =
  let* () = validate grid in
  let points = points grid in
  let jobs = List.map (job grid) points in
  let domains =
    match domains with
    | Some d -> d
    | None -> Socy_batch.Pool.default_domains ()
  in
  let t0 = Unix.gettimeofday () in
  let results = Socy_batch.run_batch ~domains ?wall_budget ?progress jobs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let rows =
    List.map2
      (fun point result ->
        {
          point;
          result =
            Result.map_error failure_of_pipeline
              (Result.map success_of_report result);
        })
      points results
  in
  Obs.incr runs_counter;
  Obs.set wall_gauge wall_s;
  Ok { grid; created_s = now; domains; wall_s; rows }

type drift = {
  row_drifts : float option list;
  max_drift : float;
  status_mismatches : int;
}

let sequential_rerun t =
  match run ~domains:1 t.grid with
  | Error msg -> invalid_arg ("Campaign.sequential_rerun: " ^ msg)
  | Ok seq ->
      let pairs = List.combine t.rows seq.rows in
      let row_drifts =
        List.map
          (fun (a, b) ->
            match (a.result, b.result) with
            | Ok x, Ok y -> Some (Float.abs (x.yield_lower -. y.yield_lower))
            | _ -> None)
          pairs
      in
      let max_drift =
        List.fold_left
          (fun acc d -> Option.fold ~none:acc ~some:(Float.max acc) d)
          0.0 row_drifts
      in
      let status_mismatches =
        List.length
          (List.filter
             (fun (a, b) -> Result.is_ok a.result <> Result.is_ok b.result)
             pairs)
      in
      (seq, { row_drifts; max_drift; status_mismatches })

(* ------------------------------------------------------------------ *)
(* Codec: socyield-campaign/1                                          *)
(* ------------------------------------------------------------------ *)

let grid_to_json g =
  Json.Obj
    [
      ("benchmarks", Json.List (List.map (fun b -> Json.String b) g.benchmarks));
      ("lambdas", Json.List (List.map (fun l -> Json.Float l) g.lambdas));
      ("epsilons", Json.List (List.map (fun e -> Json.Float e) g.epsilons));
      ( "mv_orders",
        Json.List
          (List.map
             (fun mv -> Json.String (Scheme.mv_order_name mv))
             g.mv_orders) );
      ("bit_order", Json.String (Scheme.bit_order_name g.bit_order));
      ("alpha", Json.Float g.alpha);
      ("node_limit", Json.Int g.node_limit);
      ( "cpu_limit",
        match g.cpu_limit with None -> Json.Null | Some s -> Json.Float s );
      ("reorder", Json.Bool g.reorder);
      ("par_domains", Json.Int g.par_domains);
    ]

(* The deterministic result fields a row exposes to the gate table: the
   same names the bench records and the sweep JSON use, so one gate spec
   reads all three document kinds. *)
let row_fields row =
  match row.result with
  | Ok s ->
      [
        ("m", Json.Int s.m);
        ("yield_lower", Json.Float s.yield_lower);
        ("yield_upper", Json.Float s.yield_upper);
        ("robdd_peak", Json.Int s.robdd_peak);
        ("robdd_size", Json.Int s.robdd_size);
        ("romdd_size", Json.Int s.romdd_size);
        ("cpu_s", Json.Float s.cpu_s);
      ]
  | Error (Node_budget_hit peak) -> [ ("peak_at_failure", Json.Int peak) ]
  | Error (Cpu_budget_hit elapsed) -> [ ("elapsed_s", Json.Float elapsed) ]
  | Error Cancelled -> []

let row_to_json row =
  Json.Obj
    ([
       ("source", Json.String row.point.source);
       ("lambda", Json.Float row.point.lambda);
       ("epsilon", Json.Float row.point.epsilon);
       ("mv_order", Json.String (Scheme.mv_order_name row.point.mv));
       ("status", Json.String (status_name row.result));
     ]
    @ row_fields row)

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("name", Json.String t.grid.name);
      ("created_s", Json.Float t.created_s);
      ("domains", Json.Int t.domains);
      ("wall_s", Json.Float t.wall_s);
      ("grid", grid_to_json t.grid);
      ("rows", Json.List (List.map row_to_json t.rows));
    ]

let field what name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" what name)

let as_string what = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "%s is not a string" what)

let as_float what v =
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s is not a number" what)

let as_int what = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "%s is not an integer" what)

let as_bool what = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s is not a bool" what)

let as_list what = function
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "%s is not a list" what)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] l

let mv_of_json what v =
  let* s = as_string what v in
  match Scheme.mv_order_of_name s with
  | Some mv -> Ok mv
  | None -> Error (Printf.sprintf "%s: unknown mv ordering %S" what s)

let grid_of_json ~name json =
  let* benchmarks = field "grid" "benchmarks" json in
  let* benchmarks = as_list "grid.benchmarks" benchmarks in
  let* benchmarks = map_result (as_string "grid.benchmarks[]") benchmarks in
  let* lambdas = field "grid" "lambdas" json in
  let* lambdas = as_list "grid.lambdas" lambdas in
  let* lambdas = map_result (as_float "grid.lambdas[]") lambdas in
  let* epsilons = field "grid" "epsilons" json in
  let* epsilons = as_list "grid.epsilons" epsilons in
  let* epsilons = map_result (as_float "grid.epsilons[]") epsilons in
  let* mv_orders = field "grid" "mv_orders" json in
  let* mv_orders = as_list "grid.mv_orders" mv_orders in
  let* mv_orders = map_result (mv_of_json "grid.mv_orders[]") mv_orders in
  let* bit_order = field "grid" "bit_order" json in
  let* bit_order = as_string "grid.bit_order" bit_order in
  let* bit_order =
    match Scheme.bit_order_of_name bit_order with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "grid: unknown bit ordering %S" bit_order)
  in
  let* alpha = field "grid" "alpha" json in
  let* alpha = as_float "grid.alpha" alpha in
  let* node_limit = field "grid" "node_limit" json in
  let* node_limit = as_int "grid.node_limit" node_limit in
  let* cpu_limit =
    match Json.member "cpu_limit" json with
    | None | Some Json.Null -> Ok None
    | Some v ->
        let* f = as_float "grid.cpu_limit" v in
        Ok (Some f)
  in
  let* reorder = field "grid" "reorder" json in
  let* reorder = as_bool "grid.reorder" reorder in
  let* par_domains = field "grid" "par_domains" json in
  let* par_domains = as_int "grid.par_domains" par_domains in
  Ok
    {
      name;
      benchmarks;
      lambdas;
      epsilons;
      mv_orders;
      bit_order;
      alpha;
      node_limit;
      cpu_limit;
      reorder;
      par_domains;
    }

let row_of_json i json =
  let what = Printf.sprintf "rows[%d]" i in
  let* source = field what "source" json in
  let* source = as_string (what ^ ".source") source in
  let* lambda = field what "lambda" json in
  let* lambda = as_float (what ^ ".lambda") lambda in
  let* epsilon = field what "epsilon" json in
  let* epsilon = as_float (what ^ ".epsilon") epsilon in
  let* mv = field what "mv_order" json in
  let* mv = mv_of_json (what ^ ".mv_order") mv in
  let* status = field what "status" json in
  let* status = as_string (what ^ ".status") status in
  let point = { source; lambda; epsilon; mv } in
  let* result =
    match status with
    | "ok" ->
        let num name =
          let* v = field what name json in
          as_float (what ^ "." ^ name) v
        in
        let int name =
          let* v = field what name json in
          as_int (what ^ "." ^ name) v
        in
        let* m = int "m" in
        let* yield_lower = num "yield_lower" in
        let* yield_upper = num "yield_upper" in
        let* robdd_peak = int "robdd_peak" in
        let* robdd_size = int "robdd_size" in
        let* romdd_size = int "romdd_size" in
        let* cpu_s = num "cpu_s" in
        Ok
          (Ok
             {
               m;
               yield_lower;
               yield_upper;
               robdd_peak;
               robdd_size;
               romdd_size;
               cpu_s;
             })
    | "node-budget" ->
        let* peak = field what "peak_at_failure" json in
        let* peak = as_int (what ^ ".peak_at_failure") peak in
        Ok (Error (Node_budget_hit peak))
    | "cpu-budget" ->
        let* elapsed = field what "elapsed_s" json in
        let* elapsed = as_float (what ^ ".elapsed_s") elapsed in
        Ok (Error (Cpu_budget_hit elapsed))
    | "cancelled" -> Ok (Error Cancelled)
    | other -> Error (Printf.sprintf "%s: unknown status %S" what other)
  in
  Ok { point; result }

let of_json json =
  let* () =
    match Json.member "schema" json with
    | Some (Json.String s) when s = schema -> Ok ()
    | Some (Json.String s) ->
        Error
          (Printf.sprintf "schema is %S, expected %S — not a campaign \
                           document?" s schema)
    | _ ->
        Error
          (Printf.sprintf "no %S schema field — not a campaign document?"
             schema)
  in
  let* name = field "campaign" "name" json in
  let* name = as_string "name" name in
  let* created_s = field "campaign" "created_s" json in
  let* created_s = as_float "created_s" created_s in
  let* domains = field "campaign" "domains" json in
  let* domains = as_int "domains" domains in
  let* wall_s = field "campaign" "wall_s" json in
  let* wall_s = as_float "wall_s" wall_s in
  let* grid_json = field "campaign" "grid" json in
  let* grid = grid_of_json ~name grid_json in
  let* rows = field "campaign" "rows" json in
  let* rows = as_list "rows" rows in
  let* rows =
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | r :: rest ->
          let* row = row_of_json i r in
          go (i + 1) (row :: acc) rest
    in
    go 0 [] rows
  in
  Ok { grid; created_s; domains; wall_s; rows }

let of_string s =
  match Json.of_string s with
  | json -> of_json json
  | exception Json.Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Store round trips                                                   *)
(* ------------------------------------------------------------------ *)

let save ~root ?metrics ?trace t =
  let e = Store.create_run ~root ~name:t.grid.name ~now:t.created_s () in
  Store.write_run e ?metrics ?trace (to_json t);
  e

let load (e : Store.entry) =
  let* json = Store.load_json e in
  match of_json json with
  | Ok t -> Ok t
  | Error msg -> Error (Printf.sprintf "%s: %s" (Store.campaign_file e) msg)

let load_all ~root =
  map_result
    (fun (e : Store.entry) ->
      let* t = load e in
      Ok (e.Store.id, t))
    (Store.list_runs ~root)

(* ------------------------------------------------------------------ *)
(* Bench view: a campaign as a socyield-bench document                 *)
(* ------------------------------------------------------------------ *)

(* Reducing a campaign to the bench shape is what lets one gate table
   and one trend tracker serve both artifact kinds: section is the
   campaign name, row is the grid point. *)
let to_bench t =
  {
    Bench.mode = "campaign";
    total_wall_s = t.wall_s;
    records =
      List.map
        (fun row ->
          {
            Bench.section = t.grid.name;
            row = point_label row.point;
            fields =
              ("status", Json.String (status_name row.result))
              :: row_fields row;
          })
        t.rows;
  }

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

type status_change = {
  sc_point : point;
  sc_old : string;
  sc_new : string;
}

type diff = {
  d_old : string;  (** display label of the older run *)
  d_new : string;
  outcomes : Gates.outcome list;  (** shared-point gate results *)
  status_changes : status_change list;  (** ok -> failed is a regression *)
}

let diff ?(gates = Gates.default_gates) ~old_label ~new_label old_t new_t =
  let find_row t point =
    List.find_opt (fun r -> r.point = point) t.rows
  in
  let outcomes = ref [] and status_changes = ref [] in
  List.iter
    (fun old_row ->
      let label = point_label old_row.point in
      match find_row new_t old_row.point with
      | None ->
          outcomes :=
            {
              Gates.gate = Gates.row_gate;
              label;
              field = "";
              check = Gates.Row_missing;
              failed = true;
            }
            :: !outcomes
      | Some new_row -> (
          match (old_row.result, new_row.result) with
          | Ok _, Ok _ ->
              outcomes :=
                List.rev
                  (Gates.check_pair ~gates ~label
                     ~base:(row_fields old_row)
                     ~fresh:(row_fields new_row))
                @ !outcomes
          | old_r, new_r when status_name old_r <> status_name new_r ->
              status_changes :=
                {
                  sc_point = old_row.point;
                  sc_old = status_name old_r;
                  sc_new = status_name new_r;
                }
                :: !status_changes
          | _ -> ()))
    old_t.rows;
  List.iter
    (fun new_row ->
      if find_row old_t new_row.point = None then
        outcomes :=
          {
            Gates.gate = Gates.row_gate;
            label = point_label new_row.point;
            field = "";
            check = Gates.Row_new;
            failed = false;
          }
          :: !outcomes)
    new_t.rows;
  {
    d_old = old_label;
    d_new = new_label;
    outcomes = List.rev !outcomes;
    status_changes = List.rev !status_changes;
  }

(* ok -> failed status flips are regressions; failed -> ok are
   improvements and never fail the diff. *)
let status_change_failed sc = sc.sc_old = "ok" && sc.sc_new <> "ok"

let diff_failed d =
  List.exists (fun o -> o.Gates.failed) d.outcomes
  || List.exists status_change_failed d.status_changes

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let format_utc s =
  let tm = Unix.gmtime s in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let ok_failed t =
  List.fold_left
    (fun (ok, failed) r ->
      match r.result with Ok _ -> (ok + 1, failed) | Error _ -> (ok, failed + 1))
    (0, 0) t.rows

(* The aggregate view: one line per run (newest last), then one line per
   grid point with the latest result and the cpu_s trajectory across
   runs, then the trend findings. *)
let runs_table runs =
  let t =
    Text_table.create
      ~aligns:[ Left; Left; Right; Right; Right; Right ]
      [ "run"; "created (UTC)"; "rows"; "ok"; "failed"; "wall (s)" ]
  in
  List.iter
    (fun (id, c) ->
      let ok, failed = ok_failed c in
      Text_table.add_row t
        [
          id;
          format_utc c.created_s;
          string_of_int (List.length c.rows);
          string_of_int ok;
          string_of_int failed;
          Printf.sprintf "%.2f" c.wall_s;
        ])
    runs;
  Text_table.render t

let points_table runs =
  match List.rev runs with
  | [] -> ""
  | (_, latest) :: _ ->
      let t =
        Text_table.create
          ~aligns:[ Left; Left; Right; Right; Left ]
          [ "point"; "status"; "yield_lower"; "cpu (s)"; "cpu_s across runs" ]
      in
      List.iter
        (fun row ->
          let label = point_label row.point in
          let trajectory =
            String.concat " -> "
              (List.filter_map
                 (fun (_, c) ->
                   match
                     List.find_opt (fun r -> r.point = row.point) c.rows
                   with
                   | Some { result = Ok s; _ } ->
                       Some (Printf.sprintf "%.2f" s.cpu_s)
                   | Some { result = Error _; _ } -> Some "x"
                   | None -> None)
                 runs)
          in
          let yield, cpu =
            match row.result with
            | Ok s ->
                (Printf.sprintf "%.6f" s.yield_lower,
                 Printf.sprintf "%.2f" s.cpu_s)
            | Error _ -> ("-", "-")
          in
          Text_table.add_row t
            [ label; status_name row.result; yield; cpu; trajectory ])
        latest.rows;
      Text_table.render t

let trend_findings runs =
  Trend.detect
    (List.map
       (fun (id, c) -> { Trend.snap_label = id; bench = to_bench c })
       runs)

let render_text ~runs ~findings =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (runs_table runs);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (points_table runs);
  (match findings with
  | [] -> Buffer.add_string buf "\ntrend: no slow creep detected\n"
  | fs ->
      Buffer.add_string buf "\ntrend findings:\n";
      List.iter
        (fun f -> Buffer.add_string buf ("  CREEP " ^ Trend.describe f ^ "\n"))
        fs);
  Buffer.contents buf

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_html ~runs ~findings =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  pf "<title>socyield campaign report</title>\n";
  pf
    "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse;margin:1em \
     0}th,td{border:1px solid #999;padding:0.3em 0.6em;text-align:left}th{background:#eee}\
     td.num{text-align:right}.fail{color:#b00020;font-weight:bold}.ok{color:#206020}\
     </style></head><body>\n";
  pf "<h1>socyield campaign report</h1>\n";
  pf "<h2>Runs</h2>\n<table><tr><th>run</th><th>created (UTC)</th><th>rows</th>\
      <th>ok</th><th>failed</th><th>wall (s)</th></tr>\n";
  List.iter
    (fun (id, c) ->
      let ok, failed = ok_failed c in
      pf
        "<tr><td>%s</td><td>%s</td><td class=num>%d</td><td class=num>%d</td>\
         <td class=num>%d</td><td class=num>%.2f</td></tr>\n"
        (html_escape id)
        (format_utc c.created_s)
        (List.length c.rows) ok failed c.wall_s)
    runs;
  pf "</table>\n";
  (match List.rev runs with
  | [] -> ()
  | (latest_id, latest) :: _ ->
      pf "<h2>Grid points (latest run: %s)</h2>\n" (html_escape latest_id);
      pf "<table><tr><th>point</th><th>status</th><th>yield_lower</th>\
          <th>cpu (s)</th><th>cpu_s across runs</th></tr>\n";
      List.iter
        (fun row ->
          let trajectory =
            String.concat " &rarr; "
              (List.filter_map
                 (fun (_, c) ->
                   match
                     List.find_opt (fun r -> r.point = row.point) c.rows
                   with
                   | Some { result = Ok s; _ } ->
                       Some (Printf.sprintf "%.2f" s.cpu_s)
                   | Some { result = Error _; _ } -> Some "&#10007;"
                   | None -> None)
                 runs)
          in
          let yield, cpu, cls =
            match row.result with
            | Ok s ->
                ( Printf.sprintf "%.6f" s.yield_lower,
                  Printf.sprintf "%.2f" s.cpu_s,
                  "ok" )
            | Error _ -> ("-", "-", "fail")
          in
          pf
            "<tr><td>%s</td><td class=%s>%s</td><td class=num>%s</td>\
             <td class=num>%s</td><td>%s</td></tr>\n"
            (html_escape (point_label row.point))
            cls
            (status_name row.result)
            yield cpu trajectory)
        latest.rows;
      pf "</table>\n");
  pf "<h2>Trend</h2>\n";
  (match findings with
  | [] -> pf "<p class=ok>No slow creep detected.</p>\n"
  | fs ->
      pf "<ul>\n";
      List.iter
        (fun f -> pf "<li class=fail>%s</li>\n" (html_escape (Trend.describe f)))
        fs;
      pf "</ul>\n");
  pf "</body></html>\n";
  Buffer.contents buf
