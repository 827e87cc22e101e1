type arg = S of string | I of int | F of float | B of bool

type ph = Instant | Complete of int | Meta of string

type event = {
  name : string;
  cat : string;
  pid : int;
  tid : int;
  ts : int;
  ph : ph;
  args : (string * arg) list;
}

type t = {
  capacity : int;
  mutable buf : event array;  (* [||] until the first event *)
  mutable recorded : int;
}

let dummy =
  { name = ""; cat = ""; pid = 0; tid = 0; ts = 0; ph = Instant; args = [] }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Fpx_obs.Trace.create: capacity";
  { capacity; buf = [||]; recorded = 0 }

let push t e =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity dummy;
  t.buf.(t.recorded mod t.capacity) <- e;
  t.recorded <- t.recorded + 1

let instant t ?(pid = 0) ?(tid = 0) ~name ~cat ~ts ?(args = []) () =
  push t { name; cat; pid; tid; ts; ph = Instant; args }

let complete t ?(pid = 0) ?(tid = 0) ~name ~cat ~ts ~dur ?(args = []) () =
  push t { name; cat; pid; tid; ts; ph = Complete dur; args }

let meta t ?(pid = 0) ?(tid = 0) ~name ~value () =
  push t { name; cat = "__metadata"; pid; tid; ts = 0; ph = Meta value; args = [] }

let capacity t = t.capacity
let recorded t = t.recorded
let length t = min t.recorded t.capacity
let dropped t = max 0 (t.recorded - t.capacity)

let arg_json = function
  | S s -> Json.quote s
  | I n -> string_of_int n
  | F v -> Json.float_lit v
  | B b -> string_of_bool b

let args_json buf args =
  if args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Json.quote k);
        Buffer.add_char buf ':';
        Buffer.add_string buf (arg_json v))
      args;
    Buffer.add_char buf '}'
  end

let event_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":%s,\"cat\":%s,\"pid\":%d,\"tid\":%d,\"ts\":%d"
       (Json.quote e.name) (Json.quote e.cat) e.pid e.tid e.ts);
  (match e.ph with
  | Complete d -> Buffer.add_string buf (Printf.sprintf ",\"ph\":\"X\",\"dur\":%d" d)
  | Instant -> Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"g\""
  | Meta _ -> Buffer.add_string buf ",\"ph\":\"M\"");
  (match e.ph with
  | Meta v -> args_json buf (("name", S v) :: e.args)
  | Instant | Complete _ -> args_json buf e.args);
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_chrome_json ?(clock = "simulated-cycles") t =
  let n = length t in
  let start = if t.recorded > t.capacity then t.recorded mod t.capacity else 0 in
  let buf = Buffer.create (256 * (n + 1)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf (event_json t.buf.((start + i) mod t.capacity))
  done;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":%s,\"dropped_events\":%d}}"
       (Json.quote clock) (dropped t));
  Buffer.contents buf
