(* The one event recorder. A wall-clock recorder is installed ambiently
   (an [Atomic.t] read is the whole disabled-mode cost); each domain
   that records through it lazily registers its own track with a
   private begin/end stack and a private ring buffer, so the hot path
   never takes a lock. A simulated-cycle recorder has a single ring
   that its callers fill at explicit timestamps. *)

type arg = S of string | I of int | F of float | B of bool

type clock = unit -> float

type span = {
  track : int;
  name : string;
  cat : string;
  depth : int;
  path : string;  (* ";"-joined names from the track root to this span *)
  t0 : float;  (* seconds or cycles since the recorder's epoch *)
  dur : float;
  instant : bool;
  args : (string * arg) list;
}

type track = {
  id : int;
  domain : int;
  mutable stack : span list;  (* open frames; [t0] is the absolute reading *)
  mutable buf : span array;  (* [||] until the first event *)
  mutable recorded : int;
  mutable unbalanced : int;
}

(* The clock is fixed by the constructor: [Cycles] carries the one ring
   [instant]/[complete] write into. *)
type timebase = Wall_clock | Cycles of track

type t = {
  rid : int;  (* recorder identity, for the per-domain track cache *)
  capacity : int;  (* per track *)
  clock : clock;
  epoch : float;
  timebase : timebase;
  mu : Mutex.t;  (* guards tracks_rev/next_track (registration only) *)
  mutable tracks_rev : track list;
  mutable next_track : int;
}

let dummy_span =
  { track = 0; name = ""; cat = ""; depth = 0; path = ""; t0 = 0.0;
    dur = 0.0; instant = false; args = [] }

let next_rid = Atomic.make 0

let new_track id =
  { id; domain = (Domain.self () :> int); stack = []; buf = [||];
    recorded = 0; unbalanced = 0 }

let make ~capacity ~clock ~timebase ~tracks =
  if capacity <= 0 then invalid_arg "Fpx_obs.Span: capacity";
  { rid = Atomic.fetch_and_add next_rid 1; capacity; clock; epoch = clock ();
    timebase; mu = Mutex.create (); tracks_rev = tracks;
    next_track = List.length tracks }

let create ?(capacity = 65536) ?(clock = Unix.gettimeofday) () =
  make ~capacity ~clock ~timebase:Wall_clock ~tracks:[]

let cycles ?(capacity = 65536) () =
  let ring = new_track 0 in
  make ~capacity ~clock:(Fun.const 0.0) ~timebase:(Cycles ring)
    ~tracks:[ ring ]

let push t tr sp =
  if Array.length tr.buf = 0 then tr.buf <- Array.make t.capacity dummy_span;
  tr.buf.(tr.recorded mod t.capacity) <- sp;
  tr.recorded <- tr.recorded + 1

(* --- The ambient recorder -------------------------------------------- *)

let installed : t option Atomic.t = Atomic.make None
let enabled () = Atomic.get installed <> None

let with_installed t f =
  Atomic.set installed (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set installed None) f

(* Each domain caches the track it registered with the most recent
   recorder it recorded into; a recorder change (compared by [rid])
   re-registers. Registration is the only locked operation. *)
let register t =
  Mutex.lock t.mu;
  let tr = new_track t.next_track in
  t.next_track <- tr.id + 1;
  t.tracks_rev <- tr :: t.tracks_rev;
  Mutex.unlock t.mu;
  tr

let track_cache : (int * track) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_track t =
  let cache = Domain.DLS.get track_cache in
  match !cache with
  | Some (rid, tr) when rid = t.rid -> tr
  | _ ->
    let tr = register t in
    cache := Some (t.rid, tr);
    tr

(* --- Recording on the wall clock -------------------------------------- *)

let begin_ ?(args = []) ?(cat = "span") name =
  match Atomic.get installed with
  | None -> ()
  | Some t ->
    let tr = my_track t in
    let path =
      match tr.stack with [] -> name | f :: _ -> f.path ^ ";" ^ name
    in
    let depth = List.length tr.stack in
    (* the clock is read last so the span excludes our own bookkeeping *)
    let t0 = t.clock () in
    tr.stack <-
      { track = tr.id; name; cat; depth; path; t0; dur = 0.0;
        instant = false; args }
      :: tr.stack

let end_ () =
  match Atomic.get installed with
  | None -> ()
  | Some t ->
    let t1 = t.clock () in
    let tr = my_track t in
    (match tr.stack with
    | [] -> tr.unbalanced <- tr.unbalanced + 1
    | f :: rest ->
      tr.stack <- rest;
      push t tr { f with t0 = f.t0 -. t.epoch; dur = t1 -. f.t0 })

let with_ ?args ?cat name f =
  if enabled () then begin
    begin_ ?args ?cat name;
    Fun.protect ~finally:end_ f
  end
  else f ()

(* --- Recording at simulated cycles ------------------------------------ *)

let event t ~tid ~name ~cat ~ts ~dur ~instant args =
  match t.timebase with
  | Wall_clock ->
    invalid_arg "Fpx_obs.Span: cycle-stamped event on a wall-clock recorder"
  | Cycles ring ->
    push t ring
      { track = tid; name; cat; depth = 0; path = name;
        t0 = float_of_int ts; dur = float_of_int dur; instant; args }

let instant t ?(tid = 0) ~name ~cat ~ts ?(args = []) () =
  event t ~tid ~name ~cat ~ts ~dur:0 ~instant:true args

let complete t ~name ~cat ~ts ~dur ?(args = []) () =
  event t ~tid:0 ~name ~cat ~ts ~dur ~instant:false args

(* --- Introspection (call after worker domains have joined) ------------ *)

let tracks t =
  Mutex.lock t.mu;
  let ts = List.rev t.tracks_rev in
  Mutex.unlock t.mu;
  ts

type track_info = { track_id : int; label : string }

let track_dropped t tr = max 0 (tr.recorded - t.capacity)

let track_infos t =
  List.map
    (fun tr ->
      { track_id = tr.id; label = Printf.sprintf "domain-%d" tr.domain })
    (tracks t)

let sum f t = List.fold_left (fun acc tr -> acc + f tr) 0 (tracks t)
let recorded t = sum (fun tr -> tr.recorded) t
let dropped t = sum (track_dropped t) t
let unbalanced t = sum (fun tr -> tr.unbalanced) t
let open_frames t = sum (fun tr -> List.length tr.stack) t

(* One ring's retained events, oldest first. *)
let retained t tr =
  let start = track_dropped t tr mod t.capacity in
  List.init (min tr.recorded t.capacity) (fun i ->
      tr.buf.((start + i) mod t.capacity))

let spans t =
  List.sort
    (fun a b ->
      match compare a.t0 b.t0 with
      | 0 -> (
        match compare a.track b.track with
        | 0 -> compare a.depth b.depth
        | c -> c)
      | c -> c)
    (List.concat_map (retained t) (tracks t))

(* In start order a span's enclosing spans are still open, so each
   track keeps a stack of the spans that enclose the latest one. A
   child whose parent was dropped is subtracted from nobody, and a
   dropped child from nobody either: drops can only under-attribute. *)
let self_times t =
  let eps = 1e-9 in
  let encloses p c =
    p.depth < c.depth
    && c.t0 >= p.t0 -. eps
    && c.t0 +. c.dur <= p.t0 +. p.dur +. eps
  in
  let cells = List.map (fun sp -> (sp, ref 0.0)) (spans t) in
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun ((sp, _) as cell) ->
      let rec open_ancestors = function
        | (p, _) :: _ as st when encloses p sp -> st
        | _ :: rest -> open_ancestors rest
        | [] -> []
      in
      let st =
        open_ancestors
          (Option.value ~default:[] (Hashtbl.find_opt stacks sp.track))
      in
      (match st with
      | (p, children) :: _ when p.depth = sp.depth - 1 ->
        children := !children +. sp.dur
      | _ -> ());
      Hashtbl.replace stacks sp.track (cell :: st))
    cells;
  List.map (fun (sp, children) -> (sp, Float.max 0.0 (sp.dur -. !children)))
    cells

(* --- Export ----------------------------------------------------------- *)

(* A [t0]/[dur] reading in the exported unit: wall-clock microseconds,
   or cycles exactly as recorded. *)
let ticks t x =
  match t.timebase with
  | Wall_clock -> int_of_float ((x *. 1e6) +. 0.5)
  | Cycles _ -> int_of_float x

let arg_json = function
  | S s -> Json.quote s
  | I n -> string_of_int n
  | F v -> Json.float_lit v
  | B b -> string_of_bool b

let add_event buf ~tid ~name ~cat ~ts ph args =
  Printf.bprintf buf "{\"name\":%s,\"cat\":%s,\"pid\":0,\"tid\":%d,\"ts\":%d%s"
    (Json.quote name) (Json.quote cat) tid ts ph;
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
  end;
  Buffer.add_char buf '}'

let to_chrome_json t =
  let d = dropped t in
  let lanes, events, clock =
    match t.timebase with
    | Cycles ring -> ([], retained t ring, "simulated-cycles")
    | Wall_clock ->
      let marker =
        { dummy_span with name = "spans_dropped"; cat = "span";
          instant = true; args = [ ("count", I d) ] }
      in
      ( (0, "process_name", "fpx-spans")
        :: List.map
             (fun i -> (i.track_id, "thread_name", i.label))
             (track_infos t),
        (if d > 0 then spans t @ [ marker ] else spans t),
        "wall-clock-us" )
  in
  let buf = Buffer.create (256 * (List.length events + 1)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let n = ref 0 in
  let sep () = if !n > 0 then Buffer.add_char buf ','; incr n in
  List.iter
    (fun (tid, name, value) ->
      sep ();
      add_event buf ~tid ~name ~cat:"__metadata" ~ts:0 ",\"ph\":\"M\""
        [ ("name", S value) ])
    lanes;
  List.iter
    (fun sp ->
      sep ();
      let ph =
        if sp.instant then ",\"ph\":\"i\",\"s\":\"g\""
        else Printf.sprintf ",\"ph\":\"X\",\"dur\":%d" (max 0 (ticks t sp.dur))
      in
      add_event buf ~tid:sp.track ~name:sp.name ~cat:sp.cat
        ~ts:(ticks t sp.t0) ph sp.args)
    events;
  Printf.bprintf buf
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":%s,\"dropped_events\":%d}}"
    (Json.quote clock) d;
  Buffer.contents buf

let to_collapsed t =
  let labels = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace labels i.track_id i.label) (track_infos t);
  let label id = try Hashtbl.find labels id with Not_found -> "track" in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (sp, self) ->
      let k = label sp.track ^ ";" ^ sp.path in
      Hashtbl.replace tbl k
        ((match Hashtbl.find_opt tbl k with Some x -> x | None -> 0.0) +. self))
    (self_times t);
  let lines =
    Hashtbl.fold
      (fun path v acc ->
        let n = ticks t v in
        if n > 0 then (path, n) :: acc else acc)
      tbl []
  in
  String.concat ""
    (List.map
       (fun (path, n) -> Printf.sprintf "%s %d\n" path n)
       (List.sort compare lines))
