(** The [fpx serve] daemon: a persistent analysis service.

    One process holds a warm {!Fpx_sched.Sched.Pool} of worker domains
    and a {!Cache} of rendered responses; clients submit catalog
    programs or standalone SASS kernels over a Unix-domain (or TCP)
    socket and get detector / analyzer / lint / replay verdicts back
    without paying process startup, domain spawn or recompute for
    programs already analysed.

    {2 Protocol}

    One {!Wire} frame per request, one per response, many requests per
    connection. Requests are JSON objects with an ["op"] field:

    - [{"op":"ping"}] → [{"status":"ok","payload":"pong"}]
    - [{"op":"submit","tool":T,"program":P}] or
      [{"op":"submit","tool":T,"sass":TEXT}] with optional
      ["fast_math"], ["ampere"] (bools), ["budget"] (int) and
      ["tenant"] (string, default ["anon"]). [T] is a runner tool id
      (["detect"], ["analyze"], ["binfpe"], or a ["+"]-joined stack),
      ["lint"], or ["replay"] (sass only). The tenant selects the
      {!Fpx_tenancy.Quota} admission slot and labels the
      [fpx_serve_tenant_*] metrics; it never enters the cache key or
      the response bytes, so identical submissions from different
      tenants share one entry and one byte-identical response. A
      tenant at its quota is shed with reason ["tenant-quota"] —
      except on cache hits, which are always served.
    - [{"op":"stats"}] → cache and admission counters, including a
      per-tenant ["tenants"] breakdown.
    - [{"op":"metrics"}] → the Prometheus exposition text as a string.
    - [{"op":"burn","ms":N}] → occupy one worker slot ~N ms (load
      drills).
    - [{"op":"shutdown"}] → acknowledge, then stop accepting.

    Responses carry ["status"]: ["ok"] (with ["payload"]),
    ["degraded"] (shed under overload, with ["reason"]), or ["error"]
    (with ["error"]). [ok] submit responses are deterministic — no
    timestamps, no cache markers — and are cached verbatim, so a cache
    hit is byte-identical to the fresh response. Whether a response
    was a hit is visible only through [stats] / [metrics].

    A connection whose first bytes are ["GET "] is served as HTTP
    instead: [GET /metrics] returns the Prometheus text, anything else
    404, one request per connection. *)

type config = {
  jobs : int;  (** Worker domains in the persistent pool. *)
  queue : int;
      (** Admission bound: shed once [queue + jobs] requests are in
          flight. *)
  cache_capacity : int;  (** {!Cache} LRU entry bound. *)
  budget : int option;
      (** Default per-request watchdog step cap: each launch of a
          submission may run at most this many warp-instructions (a
          budget-only {!Fpx_fault.Fault.spec}: no injection sites), and
          one that runs more ends as a reported ["hung"] run instead of
          hanging a worker. Requests may override with their own
          ["budget"], which is part of their cache key. *)
  log : string option;  (** Append server events to this file. *)
  tenant_quotas : (string * int) list;
      (** Explicit per-tenant max in-flight fresh submissions. *)
  default_quota : int option;
      (** Quota for tenants not listed; defaults to [jobs + queue]
          (bounded only by global admission). *)
}

val default_config : config
(** jobs 2, queue 4, cache 256, no budget, unbounded, no log, no
    tenant quotas. *)

type t

val create : ?config:config -> unit -> t
(** Spawn the worker pool and register the [fpx_serve_*] metrics. *)

val config : t -> config
val metrics : t -> Fpx_obs.Metrics.t
val cache : t -> Cache.t

val handle : t -> string -> string
(** Handle one request (the framed JSON payload), returning the
    response JSON. This is the whole protocol minus the sockets — the
    unit tests and in-process benches drive it directly. Never raises;
    internal errors become ["error"] responses. *)

val metrics_text : t -> string
(** Prometheus exposition text ({!Fpx_obs.Metrics.to_prometheus_text})
    of the server registry. Public so a program embedding the server
    can expose it without the socket. *)

val stopped : t -> bool
(** Has a shutdown been requested? *)

val stop : t -> unit
(** Request the accept loop to wind down. *)

val serve : ?unix_socket:string -> ?tcp_port:int -> t -> unit
(** Run the accept loop until {!stop}. At least one of [unix_socket] /
    [tcp_port] is required ([Invalid_argument] otherwise). Each
    connection is handled on its own thread; on return all connection
    threads are joined, listeners closed and the socket path
    unlinked — but the pool stays warm for a later [serve].
    @raise Unix.Unix_error when binding fails. *)

val shutdown : t -> unit
(** Shut the worker pool down. Call after {!serve} returns. *)
