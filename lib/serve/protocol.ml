module Json = Socy_obs.Json
module Scheme = Socy_order.Scheme
module H = Socy_order.Heuristics
module C = Socy_logic.Circuit
module S = Socy_benchmarks.Suite
module D = Socy_defects.Distribution
module Model = Socy_defects.Model
module P = Socy_core.Pipeline

let version = 1

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type source = Benchmark of string | Fault_tree of string

type query = {
  source : source;
  lambda : float;
  alpha : float;
  p_lethal : float;
  epsilon : float;
  mv_order : Scheme.mv_order;
  bit_order : Scheme.bit_order;
  node_limit : int option;
  cpu_limit : float option;
  reorder : bool;
  par_domains : int option;
}

type meth =
  | Eval
  | Conditional_yields
  | Importance
  | Stats
  | Metrics
  | Health
  | Shutdown

type request = { id : Json.t; meth : meth; query : query option }

let meth_name = function
  | Eval -> "eval"
  | Conditional_yields -> "conditional-yields"
  | Importance -> "importance"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Health -> "health"
  | Shutdown -> "shutdown"

let meth_of_name = function
  | "eval" -> Some Eval
  | "conditional-yields" -> Some Conditional_yields
  | "importance" -> Some Importance
  | "stats" -> Some Stats
  | "metrics" -> Some Metrics
  | "health" -> Some Health
  | "shutdown" -> Some Shutdown
  | _ -> None

let is_evaluation = function
  | Eval | Conditional_yields | Importance -> true
  | Stats | Metrics | Health | Shutdown -> false

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Unsupported_version
  | Budget_exhausted
  | Admission_rejected
  | Shutting_down
  | Internal

let error_code_name = function
  | Parse_error -> "parse-error"
  | Invalid_request -> "invalid-request"
  | Unknown_method -> "unknown-method"
  | Unsupported_version -> "unsupported-version"
  | Budget_exhausted -> "budget-exhausted"
  | Admission_rejected -> "admission-rejected"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Orderings on the wire                                               *)
(* ------------------------------------------------------------------ *)

(* The wire names are the CLI names: the Scheme.*_name strings; parsing
   delegates to the canonical Scheme inverses so every surface accepts
   exactly the same spellings. *)

let mv_order_of_name = Scheme.mv_order_of_name

let bit_order_of_name = Scheme.bit_order_of_name

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let query_to_json q =
  let source_field =
    match q.source with
    | Benchmark b -> ("benchmark", Json.String b)
    | Fault_tree e -> ("fault_tree", Json.String e)
  in
  Json.Obj
    ([
       source_field;
       ("lambda", Json.Float q.lambda);
       ("alpha", Json.Float q.alpha);
       ("p_lethal", Json.Float q.p_lethal);
       ("epsilon", Json.Float q.epsilon);
       ("mv_order", Json.String (Scheme.mv_order_name q.mv_order));
       ("bit_order", Json.String (Scheme.bit_order_name q.bit_order));
     ]
    @ (match q.node_limit with
      | None -> []
      | Some n -> [ ("node_limit", Json.Int n) ])
    @ (match q.cpu_limit with
      | None -> []
      | Some s -> [ ("cpu_limit", Json.Float s) ])
    (* Emitted only when set, so requests from older clients round-trip
       byte-identically. *)
    @ (match q.reorder with
      | false -> []
      | true -> [ ("reorder", Json.Bool true) ])
    @
    match q.par_domains with
    | None -> []
    | Some d -> [ ("par_domains", Json.Int d) ])

let request_to_json r =
  Json.Obj
    ([ ("socyield-serve", Json.Int version) ]
    @ (match r.id with Json.Null -> [] | id -> [ ("id", id) ])
    @ [ ("method", Json.String (meth_name r.meth)) ]
    @
    match r.query with
    | None -> []
    | Some q -> [ ("params", query_to_json q) ])

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let float_field ?default obj name =
  match Json.member name obj with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Invalid_request, Printf.sprintf "missing field %S" name))
  | Some v -> (
      match Json.to_float v with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error (Invalid_request, Printf.sprintf "field %S must be a finite number" name))

let query_of_json obj =
  match obj with
  | Json.Obj _ ->
      let* source =
        match (Json.member "benchmark" obj, Json.member "fault_tree" obj) with
        | Some _, Some _ ->
            Error (Invalid_request, "give either \"benchmark\" or \"fault_tree\", not both")
        | Some (Json.String b), None -> Ok (Benchmark b)
        | None, Some (Json.String e) -> Ok (Fault_tree e)
        | Some _, None | None, Some _ ->
            Error (Invalid_request, "\"benchmark\"/\"fault_tree\" must be strings")
        | None, None ->
            Error (Invalid_request, "params needs \"benchmark\" or \"fault_tree\"")
      in
      let* lambda = float_field ~default:10.0 obj "lambda" in
      let* alpha = float_field ~default:S.alpha obj "alpha" in
      let* p_lethal = float_field ~default:S.p_lethal obj "p_lethal" in
      let* epsilon = float_field ~default:S.epsilon obj "epsilon" in
      let* mv_order =
        match Json.member "mv_order" obj with
        | None -> Ok (Scheme.Heur H.Weight)
        | Some (Json.String s) -> (
            match mv_order_of_name s with
            | Some mv -> Ok mv
            | None -> Error (Invalid_request, Printf.sprintf "unknown mv_order %S" s))
        | Some _ -> Error (Invalid_request, "\"mv_order\" must be a string")
      in
      let* bit_order =
        match Json.member "bit_order" obj with
        | None -> Ok Scheme.Ml
        | Some (Json.String s) -> (
            match bit_order_of_name s with
            | Some b -> Ok b
            | None -> Error (Invalid_request, Printf.sprintf "unknown bit_order %S" s))
        | Some _ -> Error (Invalid_request, "\"bit_order\" must be a string")
      in
      let* node_limit =
        match Json.member "node_limit" obj with
        | None -> Ok None
        | Some (Json.Int n) when n > 0 -> Ok (Some n)
        | Some _ -> Error (Invalid_request, "\"node_limit\" must be a positive integer")
      in
      let* cpu_limit =
        match Json.member "cpu_limit" obj with
        | None -> Ok None
        | Some v -> (
            match Json.to_float v with
            | Some s when Float.is_finite s && s > 0.0 -> Ok (Some s)
            | _ -> Error (Invalid_request, "\"cpu_limit\" must be a positive number")
        )
      in
      let* reorder =
        match Json.member "reorder" obj with
        | None -> Ok false
        | Some (Json.Bool b) -> Ok b
        | Some _ -> Error (Invalid_request, "\"reorder\" must be a boolean")
      in
      let* par_domains =
        match Json.member "par_domains" obj with
        | None -> Ok None
        | Some (Json.Int d) when d >= 1 -> Ok (Some d)
        | Some _ ->
            Error (Invalid_request, "\"par_domains\" must be a positive integer")
      in
      Ok
        {
          source;
          lambda;
          alpha;
          p_lethal;
          epsilon;
          mv_order;
          bit_order;
          node_limit;
          cpu_limit;
          reorder;
          par_domains;
        }
  | _ -> Error (Invalid_request, "\"params\" must be an object")

let request_of_json j =
  match j with
  | Json.Obj _ ->
      let* () =
        match Json.member "socyield-serve" j with
        | Some (Json.Int v) when v = version -> Ok ()
        | Some (Json.Int v) ->
            Error
              ( Unsupported_version,
                Printf.sprintf "protocol version %d not supported (this server speaks %d)"
                  v version )
        | Some _ -> Error (Unsupported_version, "\"socyield-serve\" must be an integer")
        | None ->
            Error
              ( Invalid_request,
                "missing \"socyield-serve\" version field (expected {\"socyield-serve\": 1, ...})"
              )
      in
      let id = Option.value ~default:Json.Null (Json.member "id" j) in
      let* meth =
        match Json.member "method" j with
        | Some (Json.String s) -> (
            match meth_of_name s with
            | Some m -> Ok m
            | None -> Error (Unknown_method, Printf.sprintf "unknown method %S" s))
        | Some _ -> Error (Invalid_request, "\"method\" must be a string")
        | None -> Error (Invalid_request, "missing \"method\" field")
      in
      let* query =
        if is_evaluation meth then
          match Json.member "params" j with
          | None ->
              Error
                ( Invalid_request,
                  Printf.sprintf "method %S needs a \"params\" object" (meth_name meth) )
          | Some p ->
              let* q = query_of_json p in
              Ok (Some q)
        else Ok None
      in
      Ok { id; meth; query }
  | _ -> Error (Invalid_request, "request must be a JSON object")

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error (Parse_error, msg)
  | j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let envelope ~id ~status ?cache ?elapsed_ms body =
  Json.Obj
    ([ ("socyield-serve", Json.Int version); ("id", id); ("status", Json.String status) ]
    @ body
    @ (match cache with None -> [] | Some c -> [ ("cache", Json.String c) ])
    @
    match elapsed_ms with
    | None -> []
    | Some ms -> [ ("elapsed_ms", Json.Float ms) ])

let ok_response ~id ?cache ?elapsed_ms result =
  envelope ~id ~status:"ok" ?cache ?elapsed_ms [ ("result", result) ]

let error_response ~id ?cache ?details code msg =
  envelope ~id ~status:"error" ?cache
    ([
       ( "error",
         Json.Obj
           ([
              ("code", Json.String (error_code_name code));
              ("message", Json.String msg);
            ]
           @
           match details with
           | None | Some [] -> []
           | Some d -> [ ("details", Json.Obj d) ]) );
     ])

let failure_error f =
  let msg = P.failure_to_string f in
  let stage = P.failure_stage f in
  match f with
  | P.Node_budget { peak; _ } ->
      ( Budget_exhausted,
        msg,
        [
          ("kind", Json.String "node-budget");
          ("stage", Json.String stage);
          ("peak_at_failure", Json.Int peak);
        ] )
  | P.Cpu_budget { elapsed; _ } ->
      ( Budget_exhausted,
        msg,
        [
          ("kind", Json.String "cpu-budget");
          ("stage", Json.String stage);
          ("elapsed_s", Json.Float elapsed);
        ] )

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let report_fields (r : P.report) =
  [
    ("yield_lower", Json.Float r.P.yield_lower);
    ("yield_upper", Json.Float r.P.yield_upper);
    ("p_unusable", Json.Float r.P.p_unusable);
    ("m", Json.Int r.P.m);
    ("p_lethal", Json.Float r.P.p_lethal);
    ("robdd_peak", Json.Int r.P.robdd_peak);
    ("robdd_size", Json.Int r.P.robdd_size);
    ("romdd_size", Json.Int r.P.romdd_size);
    ("num_binary_vars", Json.Int r.P.num_binary_vars);
    ("num_groups", Json.Int r.P.num_groups);
    ("gate_count", Json.Int r.P.gate_count);
    ("reorder_runs", Json.Int r.P.reorder_runs);
    ("reorder_swaps", Json.Int r.P.reorder_swaps);
  ]

(* ------------------------------------------------------------------ *)
(* Query resolution                                                    *)
(* ------------------------------------------------------------------ *)

type resolved = {
  circuit : C.t;
  model : Model.t;
  names : string array;
}

let resolve q =
  let model_of affect =
    match Model.create (D.negative_binomial ~mean:q.lambda ~alpha:q.alpha) affect with
    | m -> Ok m
    | exception Invalid_argument msg -> Error msg
    | exception Failure msg -> Error msg
  in
  match q.source with
  | Benchmark name -> (
      match S.by_name name with
      | exception Not_found -> Error (Printf.sprintf "unknown benchmark %S" name)
      | instance ->
          let* model = model_of instance.S.affect in
          Ok { circuit = instance.S.circuit; model; names = instance.S.component_names })
  | Fault_tree expr -> (
      match Socy_logic.Parse.fault_tree ~name:"serve" expr with
      | exception Socy_logic.Parse.Syntax_error msg ->
          Error (Printf.sprintf "fault-tree parse error: %s" msg)
      | circuit ->
          let c = circuit.C.num_inputs in
          if c = 0 then Error "fault tree references no component"
          else if not (q.p_lethal > 0.0 && q.p_lethal <= 1.0) then
            Error (Printf.sprintf "p_lethal must lie in (0, 1] (got %g)" q.p_lethal)
          else
            let* model = model_of (Array.make c (q.p_lethal /. float_of_int c)) in
            let names = Array.init c (fun i -> Printf.sprintf "x%d" i) in
            Ok { circuit; model; names })

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

(* Structural circuit serialization: postorder indices, so two expressions
   building the same DAG (whatever their node ids) serialize identically.
   Each node's value in the walk is its postorder index. *)
let add_circuit buf (c : C.t) =
  let next = ref 0 in
  let index =
    C.fold c (fun n index ->
        (match n.C.desc with
        | C.Input k -> Buffer.add_string buf (Printf.sprintf "I%d;" k)
        | C.Const b -> Buffer.add_string buf (if b then "C1;" else "C0;")
        | C.Gate (kind, args) ->
            Buffer.add_char buf 'G';
            Buffer.add_string buf (C.gate_kind_name kind);
            Buffer.add_char buf '(';
            Array.iter
              (fun (a : C.node) ->
                Buffer.add_string buf (string_of_int (index a));
                Buffer.add_char buf ',')
              args;
            Buffer.add_string buf ");");
        let i = !next in
        incr next;
        i)
  in
  Buffer.add_string buf
    (Printf.sprintf "out=%d/in=%d" (index c.C.output) c.C.num_inputs)

let cache_key ~meth ~resolved ~node_limit ~cpu_limit ~par_domains q =
  let buf = Buffer.create 512 in
  add_circuit buf resolved.circuit;
  (* Exact bit patterns: "%h" round-trips floats losslessly, so two models
     are keyed together iff they are numerically identical. *)
  Buffer.add_string buf (Printf.sprintf "|l=%h|a=%h|" q.lambda q.alpha);
  Array.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "%h," p))
    resolved.model.Model.affect;
  (* The reorder flag keys on what the client *requested*, never on any
     post-sift permutation: sifting is walked back to the static scheme
     before evaluation, so results are bit-identical either way, but the
     two runs differ in reported reorder statistics.

     [par_domains] is the *effective* team size (after the server default
     and the reorder-wins fallback). The yield and diagram sizes are
     bit-identical across team sizes, but the peak/GC report fields are
     engine-specific, so parallel and sequential runs must not share a
     cache entry. *)
  Buffer.add_string buf
    (Printf.sprintf "|e=%h|mv=%s|bit=%s|nl=%d|cl=%s|r=%d|pd=%d|m=%s" q.epsilon
       (Scheme.mv_order_name q.mv_order)
       (Scheme.bit_order_name q.bit_order)
       node_limit
       (match cpu_limit with None -> "-" | Some s -> Printf.sprintf "%h" s)
       (if q.reorder then 1 else 0)
       par_domains
       (meth_name meth));
  Digest.to_hex (Digest.string (Buffer.contents buf))
