module Content = Fpx_store.Content
module Metrics = Fpx_obs.Metrics
module Pool = Fpx_sched.Sched.Pool

type entry = { value : string; mutable tick : int }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  coalesced : int;
  entries : int;
  capacity : int;
}

type t = {
  capacity : int;
  m : Mutex.t;
  table : (string, entry) Hashtbl.t;
  pending : (string, string Pool.future) Hashtbl.t;
  mutable clock : int;  (* recency ticks; bumped on insert and hit *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable coalesced : int;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_coalesced : Metrics.counter;
  g_entries : Metrics.gauge;
}

let create ?(capacity = 256) metrics =
  let capacity = max 1 capacity in
  {
    capacity;
    m = Mutex.create ();
    table = Hashtbl.create 64;
    pending = Hashtbl.create 8;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    coalesced = 0;
    c_hits =
      Metrics.counter metrics ~help:"Responses served from the result cache"
        "fpx_serve_cache_hits_total";
    c_misses =
      Metrics.counter metrics ~help:"Submissions that had to compute"
        "fpx_serve_cache_misses_total";
    c_evictions =
      Metrics.counter metrics ~help:"Entries evicted by the LRU bound"
        "fpx_serve_cache_evictions_total";
    c_coalesced =
      Metrics.counter metrics
        ~help:"Requests that joined an in-flight compute for the same key"
        "fpx_serve_cache_coalesced_total";
    g_entries =
      Metrics.gauge metrics ~help:"Resident cache entries"
        "fpx_serve_cache_entries";
  }

let capacity t = t.capacity

let key ~kind ~program ~config =
  Content.key ~version:"serve-v1"
    [ kind; Content.digest_hex program; Content.digest_hex config ]

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* callers hold t.m *)
let hit t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock;
  t.hits <- t.hits + 1;
  Metrics.incr t.c_hits

(* callers hold t.m; evicts the stalest entry when at capacity *)
let insert t k value =
  if Hashtbl.length t.table >= t.capacity then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.tick <= e.tick -> acc
          | _ -> Some (k, e))
        t.table None
    in
    match victim with
    | Some (vk, _) ->
      Hashtbl.remove t.table vk;
      t.evictions <- t.evictions + 1;
      Metrics.incr t.c_evictions
    | None -> ()
  end;
  t.clock <- t.clock + 1;
  Hashtbl.replace t.table k { value; tick = t.clock };
  Metrics.set t.g_entries (float_of_int (Hashtbl.length t.table))

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
        hit t e;
        Some e.value
      | None -> None)

let is_pending t k =
  locked t (fun () -> Hashtbl.mem t.pending k)

let find_or_compute t k f =
  let action =
    locked t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some e ->
          hit t e;
          `Hit e.value
        | None -> (
          match Hashtbl.find_opt t.pending k with
          | Some w ->
            t.coalesced <- t.coalesced + 1;
            Metrics.incr t.c_coalesced;
            `Join w
          | None ->
            let w = Pool.promise () in
            Hashtbl.replace t.pending k w;
            t.misses <- t.misses + 1;
            Metrics.incr t.c_misses;
            `Compute w))
  in
  match action with
  | `Hit v -> v
  | `Join w -> Pool.await w
  | `Compute w ->
    (* cache (or drop) the outcome before waking the joiners, so a
       request arriving after them is a hit, not another join *)
    let outcome = Pool.capture f in
    locked t (fun () ->
        Hashtbl.remove t.pending k;
        match outcome with
        | Ok v -> insert t k v
        | Error _ -> ());
    Pool.fulfil w outcome;
    Pool.unwrap outcome

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        coalesced = t.coalesced;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
      })
