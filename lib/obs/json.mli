(** A minimal JSON tree, printer and parser.

    [Socy_obs] must stay dependency-free (it is linked into every library,
    including the hot decision-diagram engine), so this is a deliberately
    small JSON implementation: enough to emit machine-readable run reports
    and to parse them back in tests and tooling. It is {e not} a streaming
    parser and holds the whole document in memory — run reports are a few
    kilobytes, so that is the right trade.

    Printing produces valid, deterministic JSON: object fields keep their
    construction order, floats use a round-trippable shortest form, and
    non-finite floats (which JSON cannot represent) print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields are emitted in list order *)

(** {1 Printing} *)

(** [to_string v] is the compact (single-line) rendering of [v]. *)
val to_string : t -> string

(** [to_string_pretty v] renders [v] with two-space indentation — the form
    meant for humans and for files kept under version control. *)
val to_string_pretty : t -> string

(** [to_channel oc v] writes {!to_string_pretty} of [v] plus a trailing
    newline to [oc]. *)
val to_channel : out_channel -> t -> unit

(** {1 Parsing} *)

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val max_depth : int
(** How many arrays and objects {!of_string} lets nest: 1,000. *)

(** [of_string s] parses one JSON document. Numbers without a fraction or
    exponent become [Int]; everything else numeric becomes [Float]. [\uXXXX]
    escapes are decoded to UTF-8. Raises {!Parse_error} on malformed input,
    trailing garbage, or arrays and objects nested deeper than
    {!max_depth}. *)
val of_string : string -> t

(** {1 Accessors} *)

(** [member name v] is the field [name] of the object [v], if present.
    [None] for missing fields and non-objects. *)
val member : string -> t -> t option

(** [to_float v] is the numeric value of an [Int] or [Float]; [None]
    otherwise. *)
val to_float : t -> float option
