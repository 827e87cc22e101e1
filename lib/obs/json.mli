(** The one JSON codec: value type, parser, printer and the string and
    float literal helpers. Reports, metrics exports, traces, campaign
    store lines and the serve protocol all write through it, and
    everything that reads JSON back parses with it. A plain
    recursive-descent parser for objects, arrays, strings (with the
    standard escapes), doubles, booleans and null, with no dependency
    outside the stdlib.

    Emitters that need a fixed number format ([%.4f], [%.6f]) keep their
    own [sprintf] templates and pass every string through {!quote}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val max_depth : int
(** Deepest container nesting {!parse} accepts. Public so a producer
    can stay within it. *)

val parse : string -> t
(** @raise Parse_error on malformed input, trailing garbage, a [\u]
    escape that is not exactly four hex digits, or containers nested
    deeper than {!max_depth}. *)

val to_string : t -> string
(** Compact deterministic rendering (object fields in the given order;
    integral floats render without a fraction). *)

val quote : string -> string
(** A JSON string literal for [s], quotes included: quotes, backslashes
    and every control character are escaped (named escapes for
    [\n \t \r \b \f], [\u00XX] otherwise); other bytes pass through. *)

val float_lit : float -> string
(** A valid JSON number for [v]: finite floats render as shortest
    round-trip decimals; NaN and infinities (not representable in JSON)
    render as quoted strings. *)

(** {1 Accessors} — [None] on missing field or wrong shape. *)

val member : string -> t -> t option
(** Field lookup; [None] unless the value is an [Obj] with the field. *)

val str_field : string -> t -> string option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option
