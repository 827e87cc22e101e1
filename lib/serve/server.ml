module Sched = Fpx_sched.Sched
module Json = Fpx_obs.Json
module Metrics = Fpx_obs.Metrics
module R = Fpx_harness.Runner
module W = Fpx_workloads.Workload
module Quota = Fpx_tenancy.Quota

type config = {
  jobs : int;
  queue : int;
  cache_capacity : int;
  budget : int option;
  max_requests : int option;
  log : string option;
  tenant_quotas : (string * int) list;
  default_quota : int option;
}

let default_config =
  { jobs = 2; queue = 4; cache_capacity = 256; budget = None;
    max_requests = None; log = None; tenant_quotas = []; default_quota = None }

type t = {
  cfg : config;
  pool : Sched.Pool.t;
  cache : Cache.t;
  metrics : Metrics.t;
  quota : Quota.t;  (* per-tenant admission; mutated under [sm] *)
  sm : Mutex.t;  (* guards stop, served, quota, tenant metrics and the log channel *)
  mutable stop : bool;
  mutable served : int;
  mutable log : out_channel option;
  c_requests : Metrics.counter;
  c_ok : Metrics.counter;
  c_degraded : Metrics.counter;
  c_error : Metrics.counter;
  c_shed : Metrics.counter;
  g_inflight : Metrics.gauge;
  h_latency : Metrics.histogram;
}

let create ?(config = default_config) () =
  (* tool registry must be populated before any Runner.run *)
  Fpx_harness.Toolreg.ensure ();
  let cfg =
    { config with jobs = max 1 config.jobs; queue = max 0 config.queue }
  in
  let metrics = Metrics.create () in
  let log =
    Option.map
      (fun path ->
        Fpx_store.Content.mkdir_p (Filename.dirname path);
        open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)
      cfg.log
  in
  {
    cfg;
    pool = Sched.Pool.create ~jobs:cfg.jobs;
    cache = Cache.create ~capacity:cfg.cache_capacity metrics;
    metrics;
    quota =
      Quota.create ?default_limit:cfg.default_quota
        ~capacity:(cfg.jobs + cfg.queue) cfg.tenant_quotas;
    sm = Mutex.create ();
    stop = false;
    served = 0;
    log;
    c_requests =
      Metrics.counter metrics ~help:"Requests received"
        "fpx_serve_requests_total";
    c_ok =
      Metrics.counter metrics ~help:"Responses with status ok"
        "fpx_serve_responses_ok_total";
    c_degraded =
      Metrics.counter metrics ~help:"Responses with status degraded (shed)"
        "fpx_serve_responses_degraded_total";
    c_error =
      Metrics.counter metrics ~help:"Responses with status error"
        "fpx_serve_responses_error_total";
    c_shed =
      Metrics.counter metrics
        ~help:"Requests shed by admission control (queue full)"
        "fpx_serve_shed_total";
    g_inflight =
      Metrics.gauge metrics ~help:"Pool tasks queued or running"
        "fpx_serve_inflight";
    h_latency =
      Metrics.histogram metrics ~help:"Request handling latency (seconds)"
        ~buckets:[ 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ]
        "fpx_serve_request_seconds";
  }

let config t = t.cfg
let metrics t = t.metrics
let cache t = t.cache
let metrics_text t = Metrics.to_prometheus_text t.metrics

let log_line t msg =
  Mutex.lock t.sm;
  (match t.log with
  | Some oc ->
    Printf.fprintf oc "[%.3f] %s\n" (Unix.gettimeofday ()) msg;
    flush oc
  | None -> ());
  Mutex.unlock t.sm

(* Tenant-labelled series are created on demand as tenants appear; the
   metrics registry's table is not thread-safe, so lookup-or-create and
   the update both happen under the state lock. The label is embedded in
   the metric name, which the Prometheus renderer groups under one
   family header. *)
let tenant_series name tenant = Printf.sprintf "%s{tenant=%S}" name tenant

let tenant_incr t ~help name tenant =
  Mutex.lock t.sm;
  Metrics.incr (Metrics.counter t.metrics ~help (tenant_series name tenant));
  Mutex.unlock t.sm

let tenant_add_latency t tenant dt =
  Mutex.lock t.sm;
  let g =
    Metrics.gauge t.metrics
      ~help:"Cumulative submit handling seconds per tenant"
      (tenant_series "fpx_serve_tenant_request_seconds_total" tenant)
  in
  Metrics.set g (Metrics.gauge_value g +. dt);
  Mutex.unlock t.sm

let quota_admit t tenant =
  Mutex.lock t.sm;
  let admitted = Quota.admit t.quota tenant in
  Mutex.unlock t.sm;
  admitted

let quota_release t tenant =
  Mutex.lock t.sm;
  Quota.release t.quota tenant;
  Mutex.unlock t.sm

let stopped t =
  Mutex.lock t.sm;
  let s = t.stop in
  Mutex.unlock t.sm;
  s

let stop t =
  Mutex.lock t.sm;
  t.stop <- true;
  Mutex.unlock t.sm

(* --- responses -------------------------------------------------------- *)

(* Requests the handler refuses before any compute (bad JSON, unknown
   tool, unknown program, ...). *)
exception Reject of string

let resp_error msg =
  Json.to_string (Obj [ ("status", Str "error"); ("error", Str msg) ])

let resp_degraded reason =
  Json.to_string
    (Obj [ ("status", Str "degraded"); ("reason", Str reason) ])

let resp_ok payload =
  Json.to_string (Obj [ ("status", Str "ok"); ("payload", payload) ])

(* --- submit ----------------------------------------------------------- *)

type source = Catalog of W.t | Sass of string

let tool_config_of_name name =
  match Fpx_harness.Toolreg.tool_config_of_name name with
  | Ok tool -> tool
  | Error msg -> raise (Reject msg)

let parse_sass text =
  try Fpx_sass.Parse.file text
  with Fpx_sass.Parse.Parse_error { line; message } ->
    raise (Reject (Printf.sprintf "sass parse error at line %d: %s" line message))

(* The response payload for one submission. Runs on a pool worker; must
   be deterministic (no wall clock, no cache state) so the rendered
   response can be cached and replayed byte-identically. *)
let compute_payload ~tool_name ~source ~mode ~fault () =
  match tool_name with
  | "lint" ->
    let progs =
      match source with
      | Sass text -> [ (parse_sass text).Fpx_sass.Parse.prog ]
      | Catalog w ->
        List.map (Fpx_klang.Compile.compile ~mode) w.W.kernels
    in
    let reports = List.map Fpx_static.Lint.lint progs in
    Json.List
      (List.map
         (fun (r : Fpx_static.Lint.report) ->
           Json.Obj
             [ ("kernel", Json.Str r.Fpx_static.Lint.kernel);
               ("n_sites", Json.Num (float_of_int r.Fpx_static.Lint.n_sites));
               ("n_clean", Json.Num (float_of_int r.Fpx_static.Lint.n_clean));
               ("lines",
                Json.List
                  (List.map
                     (fun l -> Json.Str l)
                     (Fpx_static.Lint.to_lines r))) ])
         reports)
  | "replay" ->
    let text =
      match source with
      | Sass text -> text
      | Catalog _ -> raise (Reject "replay needs a \"sass\" source")
    in
    let c = Fpx_fuzz.Repro.of_file (parse_sass text) in
    let ds = Fpx_fuzz.Oracle.check ?fault c in
    Json.Obj
      [ ("discrepancies",
         Json.List
           (List.map
              (fun (d : Fpx_fuzz.Oracle.discrepancy) ->
                Json.Obj
                  [ ("clazz",
                     Json.Str
                       (Fpx_fuzz.Oracle.clazz_to_string d.Fpx_fuzz.Oracle.clazz));
                    ("detail", Json.Str d.Fpx_fuzz.Oracle.detail) ])
              ds)) ]
  | name ->
    let tool = tool_config_of_name name in
    let w =
      match source with
      | Catalog w -> w
      | Sass text -> Fpx_fuzz.Repro.workload (Fpx_fuzz.Repro.of_file (parse_sass text))
    in
    let m = R.run ?fault ~mode ~tool w in
    (* Runner.to_json is already deterministic JSON; re-parse so it
       embeds as a value, not a quoted string. *)
    Json.parse (R.to_json m)

let submit t req =
  (* The tenant labels quotas and metrics only: it never enters the
     cache key or the response bytes, so the same submission stays one
     cache entry (and one byte-identical response) no matter who asks. *)
  let tenant = Option.value ~default:"anon" (Json.str_field "tenant" req) in
  let tool_name =
    Option.value ~default:"detect" (Json.str_field "tool" req)
  in
  let fast_math = Option.value ~default:false (Json.bool_field "fast_math" req) in
  let ampere = Option.value ~default:false (Json.bool_field "ampere" req) in
  let budget =
    match Json.int_field "budget" req with
    | Some b -> Some b
    | None -> t.cfg.budget
  in
  let source =
    match (Json.str_field "program" req, Json.str_field "sass" req) with
    | Some p, None -> (
      match Fpx_workloads.Catalog.find p with
      | w -> Catalog w
      | exception Not_found ->
        raise (Reject (Printf.sprintf "unknown program %S" p)))
    | None, Some s -> Sass s
    | Some _, Some _ -> raise (Reject "give \"program\" or \"sass\", not both")
    | None, None -> raise (Reject "missing \"program\" or \"sass\"")
  in
  (* Validate the tool name before admission, so garbage never occupies
     a worker slot or counts a cache miss. *)
  (match (tool_name, source) with
  | "lint", _ -> ()
  | "replay", Sass _ -> ()
  | "replay", Catalog _ -> raise (Reject "replay needs a \"sass\" source")
  | name, _ -> ignore (tool_config_of_name name : R.tool_config));
  let mode =
    let m =
      if fast_math then Fpx_klang.Mode.fast_math else Fpx_klang.Mode.precise
    in
    if ampere then Fpx_klang.Mode.with_arch Fpx_klang.Mode.Ampere m else m
  in
  let fault =
    (* A budget-only spec: no injection sites, so nothing is perturbed —
       it only arms the launch watchdog, turning a pathological
       submission into an aborted (reported) run instead of a hung
       worker. *)
    Option.map
      (fun b ->
        Fpx_fault.Fault.spec ~sites:[] ~rate:0.0 ~budget:b ~seed:0 ())
      budget
  in
  let program_id =
    match source with
    | Catalog w -> "catalog:" ^ w.W.name
    | Sass text -> "sass:" ^ text
  in
  let config_id =
    String.concat ";"
      [ "tool=" ^ tool_name;
        "fast_math=" ^ string_of_bool fast_math;
        "ampere=" ^ string_of_bool ampere;
        ("budget="
         ^ match budget with None -> "none" | Some b -> string_of_int b) ]
  in
  let key = Cache.key ~kind:"submit" ~program:program_id ~config:config_id in
  let render_response () =
    let payload = compute_payload ~tool_name ~source ~mode ~fault () in
    Json.to_string
      (Obj
         [ ("status", Str "ok");
           ("key", Str key);
           ("tool", Str tool_name);
           ("payload", payload) ])
  in
  tenant_incr t ~help:"Submit requests per tenant"
    "fpx_serve_tenant_requests_total" tenant;
  let t0 = Unix.gettimeofday () in
  let finish resp =
    tenant_add_latency t tenant (Unix.gettimeofday () -. t0);
    resp
  in
  match Cache.find t.cache key with
  | Some cached ->
    (* Cache hits are always served — a tenant at its quota still gets
       already-computed answers; the quota bounds fresh compute. *)
    tenant_incr t ~help:"Submit cache hits per tenant"
      "fpx_serve_tenant_cached_total" tenant;
    finish ("ok", cached)
  | None ->
    if not (quota_admit t tenant) then begin
      tenant_incr t ~help:"Submits shed by per-tenant quota"
        "fpx_serve_tenant_shed_total" tenant;
      log_line t
        (Printf.sprintf "shed submit tenant=%s reason=tenant-quota key=%s"
           tenant (String.sub key 0 12));
      finish ("degraded", resp_degraded "tenant-quota")
    end
    else
      Fun.protect
        ~finally:(fun () -> quota_release t tenant)
        (fun () ->
          let in_flight = Sched.Pool.in_flight t.pool in
          Metrics.set t.g_inflight (float_of_int in_flight);
          if
            (not (Cache.is_pending t.cache key))
            && in_flight >= t.cfg.jobs + t.cfg.queue
          then begin
            Metrics.incr t.c_shed;
            log_line t (Printf.sprintf "shed submit key=%s in_flight=%d"
                          (String.sub key 0 12) in_flight);
            finish ("degraded", resp_degraded "queue-full")
          end
          else
            finish
              ( "ok",
                Cache.find_or_compute t.cache key (fun () ->
                    Sched.Pool.run t.pool render_response) ))

(* --- other ops -------------------------------------------------------- *)

let burn t req =
  let ms = Option.value ~default:10 (Json.int_field "ms" req) in
  let in_flight = Sched.Pool.in_flight t.pool in
  Metrics.set t.g_inflight (float_of_int in_flight);
  if in_flight >= t.cfg.jobs + t.cfg.queue then begin
    Metrics.incr t.c_shed;
    ("degraded", resp_degraded "queue-full")
  end
  else begin
    Sched.Pool.run t.pool (fun () ->
        let until = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
        while Unix.gettimeofday () < until do
          ignore (Sys.opaque_identity (ref 0))
        done);
    ("ok", resp_ok (Str "burned"))
  end

let stats t =
  let s = Cache.stats t.cache in
  let num n = Json.Num (float_of_int n) in
  let tenants =
    Mutex.lock t.sm;
    let rows =
      List.map
        (fun name ->
          ( name,
            Json.Obj
              [ ("limit", num (Quota.limit t.quota name));
                ("in_flight", num (Quota.in_flight t.quota name));
                ("admitted", num (Quota.admitted t.quota name));
                ("shed", num (Quota.shed t.quota name)) ] ))
        (Quota.tenants t.quota)
    in
    Mutex.unlock t.sm;
    Json.Obj rows
  in
  ( "ok",
    resp_ok
      (Obj
         [ ("cache_hits", num s.Cache.hits);
           ("cache_misses", num s.Cache.misses);
           ("cache_evictions", num s.Cache.evictions);
           ("cache_coalesced", num s.Cache.coalesced);
           ("cache_entries", num s.Cache.entries);
           ("cache_capacity", num s.Cache.capacity);
           ("in_flight", num (Sched.Pool.in_flight t.pool));
           ("served", num t.served);
           ("jobs", num t.cfg.jobs);
           ("queue", num t.cfg.queue);
           ("tenants", tenants) ]) )

let handle_parsed t req =
  match Json.str_field "op" req with
  | None -> raise (Reject "missing \"op\"")
  | Some "ping" -> ("ok", resp_ok (Str "pong"))
  | Some "submit" -> submit t req
  | Some "stats" -> stats t
  | Some "metrics" -> ("ok", resp_ok (Str (metrics_text t)))
  | Some "burn" -> burn t req
  | Some "shutdown" ->
    stop t;
    log_line t "shutdown requested";
    ("ok", resp_ok (Str "shutting-down"))
  | Some op -> raise (Reject (Printf.sprintf "unknown op %S" op))

let handle t line =
  Metrics.incr t.c_requests;
  let t0 = Unix.gettimeofday () in
  let status, resp =
    match handle_parsed t (Json.parse line) with
    | r -> r
    | exception Reject msg -> ("error", resp_error msg)
    | exception Json.Parse_error msg ->
      ("error", resp_error ("bad request: " ^ msg))
    | exception e ->
      ("error", resp_error ("internal: " ^ Printexc.to_string e))
  in
  Metrics.observe t.h_latency (Unix.gettimeofday () -. t0);
  (match status with
  | "ok" -> Metrics.incr t.c_ok
  | "degraded" -> Metrics.incr t.c_degraded
  | _ -> Metrics.incr t.c_error);
  Mutex.lock t.sm;
  t.served <- t.served + 1;
  (match t.cfg.max_requests with
  | Some n when t.served >= n -> t.stop <- true
  | _ -> ());
  Mutex.unlock t.sm;
  resp

(* --- sockets ---------------------------------------------------------- *)

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

(* One-shot HTTP handler: a Prometheus scraper pointed at the same
   socket gets /metrics without speaking the framed protocol. [start]
   is the request's first bytes, already read by the dispatcher. *)
let handle_http t conn ~start =
  let buf = Buffer.create 256 in
  Buffer.add_string buf start;
  let chunk = Bytes.create 256 in
  let rec read_head () =
    if Buffer.length buf > 8192 then ()
    else
      let sub = Buffer.contents buf in
      let have_head =
        let rec scan i =
          i + 3 < String.length sub
          && (String.sub sub i 4 = "\r\n\r\n" || scan (i + 1))
        in
        String.length sub >= 4 && scan 0
      in
      if have_head then ()
      else
        match Unix.read conn chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read_head ()
  in
  read_head ();
  let head = Buffer.contents buf in
  let target =
    match String.split_on_char ' ' head with
    | _meth :: path :: _ -> path
    | _ -> "/"
  in
  let resp =
    if target = "/metrics" then
      http_response ~status:"200 OK" ~body:(metrics_text t)
    else http_response ~status:"404 Not Found" ~body:"not found\n"
  in
  Wire.write_all conn (Bytes.of_string resp)

let handle_conn t conn =
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
      try
        (* The first 4 bytes decide the protocol, however the client
           splits them across writes: "GET " is HTTP, anything else is
           a frame header. *)
        let rec frames = function
          | None -> ()
          | Some header ->
            Wire.write_frame conn (handle t (Wire.read_payload conn header));
            frames (Wire.read_header conn)
        in
        match Wire.read_header conn with
        | Some ("GET " as start) -> handle_http t conn ~start
        | first -> frames first
      with
      | End_of_file | Unix.Unix_error _ -> ()
      | Wire.Frame_too_large n ->
        (try Wire.write_frame conn
               (resp_error (Printf.sprintf "frame too large (%d bytes)" n))
         with _ -> ()))

let serve ?unix_socket ?tcp_port t =
  if unix_socket = None && tcp_port = None then
    invalid_arg "Server.serve: need a unix socket path or a TCP port";
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listeners = ref [] in
  (match unix_socket with
  | Some path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    listeners := (fd, Some path) :: !listeners;
    log_line t (Printf.sprintf "listening on unix:%s" path)
  | None -> ());
  (match tcp_port with
  | Some port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    listeners := (fd, None) :: !listeners;
    log_line t (Printf.sprintf "listening on tcp:%d" port)
  | None -> ());
  let threads = ref [] in
  let fds = List.map fst !listeners in
  while not (stopped t) do
    let ready, _, _ =
      try Unix.select fds [] [] 0.2
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        match Unix.accept fd with
        | conn, _ ->
          threads := Thread.create (handle_conn t) conn :: !threads
        | exception Unix.Unix_error _ -> ())
      ready
  done;
  List.iter Thread.join !threads;
  List.iter
    (fun (fd, path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ())
    !listeners;
  log_line t "accept loop stopped"

let shutdown t =
  Sched.Pool.shutdown t.pool;
  Mutex.lock t.sm;
  (match t.log with
  | Some oc ->
    close_out_noerr oc;
    t.log <- None
  | None -> ());
  Mutex.unlock t.sm
