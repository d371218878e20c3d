type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal form that round-trips; JSON has no NaN/inf, print null. *)
let add_float buf f =
  if Float.is_nan f || f = infinity || f = neg_infinity then
    Buffer.add_string buf "null"
  else begin
    let shortest = Printf.sprintf "%.12g" f in
    let s =
      if float_of_string shortest = f then shortest else Printf.sprintf "%.17g" f
    in
    Buffer.add_string buf s;
    if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
      Buffer.add_string buf ".0"
  end

let rec add buf ~indent ~level v =
  let nl sep lv =
    if indent = 0 then Buffer.add_string buf sep
    else begin
      Buffer.add_string buf (String.trim sep);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * lv) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          nl (if i = 0 then "" else ",") (level + 1);
          add buf ~indent ~level:(level + 1) item)
        items;
      nl "" level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          nl (if i = 0 then "" else ",") (level + 1);
          add_escaped buf k;
          Buffer.add_string buf (if indent = 0 then ":" else ": ");
          add buf ~indent ~level:(level + 1) item)
        fields;
      nl "" level;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  add buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:0 v
let to_string_pretty v = render ~indent:2 v

let to_channel oc v =
  output_string oc (to_string_pretty v);
  output_char oc '\n'

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

(* The parser recurses once per array or object level; the bound keeps one
   hostile line from pinning a core, far above the program's own
   documents (a metrics report nests 6 levels). *)
let max_depth = 1_000

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail "bad \\u escape"
            in
            Buffer.add_utf_8_uchar buf
              (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  (* Step into an array or object with [depth] of them already open. *)
  let enter depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    advance ()
  in
  (* [depth] counts the arrays and objects open around the value. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        enter depth;
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        enter depth;
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- accessors ---------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
