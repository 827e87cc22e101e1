type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* --- escaping --------------------------------------------------------- *)

let quote s =
  let buf = Buffer.create (String.length s + 8) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_lit v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else
    let s = Printf.sprintf "%.17g" v in
    (* shortest representation that round-trips *)
    let shorter = Printf.sprintf "%.12g" v in
    if float_of_string shorter = v then shorter else s

(* --- parsing ---------------------------------------------------------- *)

(* Containers nest at most this deep; anything deeper is hostile input,
   rejected before the recursion can grow with the frame size. *)
let max_depth = 512

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail "expected %C at offset %d, found %C" c st.pos d
  | None -> fail "expected %C at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

let utf8_of_code buf u =
  (* Encode one scalar value; the protocol never needs surrogate pairs
     beyond this. *)
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail "unterminated string"
    else
      match st.s.[st.pos] with
      | '"' -> st.pos <- st.pos + 1
      | '\\' ->
        st.pos <- st.pos + 1;
        (if st.pos >= String.length st.s then fail "unterminated escape"
         else
           match st.s.[st.pos] with
           | '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1
           | '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1
           | '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1
           | 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1
           | 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1
           | 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1
           | 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1
           | 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1
           | 'u' ->
             if st.pos + 4 >= String.length st.s then
               fail "truncated \\u escape";
             let hex = String.sub st.s (st.pos + 1) 4 in
             (* exactly four hex digits: [int_of_string] alone would
                also take [_] *)
             let is_hex = function
               | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
               | _ -> false
             in
             if not (String.for_all is_hex hex) then
               fail "invalid \\u escape %S" hex;
             utf8_of_code buf (int_of_string ("0x" ^ hex));
             st.pos <- st.pos + 5
           | c -> fail "invalid escape \\%C" c);
        go ()
      | c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail "invalid number %S at offset %d" text start

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some ('{' | '[') when depth >= max_depth ->
    fail "nesting deeper than %d at offset %d" max_depth st.pos
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" st.pos
      in
      fields []
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elems (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" st.pos
      in
      elems []
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected %C at offset %d" c st.pos

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v

(* --- rendering -------------------------------------------------------- *)

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (float_lit f)
  | Str s -> Buffer.add_string buf (quote s)
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        render buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (quote k);
        Buffer.add_char buf ':';
        render buf v)
      fs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  render buf v;
  Buffer.contents buf

(* --- accessors -------------------------------------------------------- *)

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

let str_field k v =
  match member k v with Some (Str s) -> Some s | _ -> None

let int_field k v =
  match member k v with
  | Some (Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool_field k v =
  match member k v with Some (Bool b) -> Some b | _ -> None
