module Fault = Fpx_fault.Fault

(* Packets are [width] consecutive ints of [buf]: the three payload
   words and a checksum over them, so in-transit corruption is detected
   at the host and discarded instead of being mis-decoded. Pending
   packets are [head, tail) (in packets); a drain that empties the
   queue rewinds both to 0. When the tail reaches the end, the pending
   packets slide down to the start if they and the new one fit in half
   the buffer; otherwise the buffer doubles. *)
let width = 4

type t = {
  cost : Cost.t;
  fault : Fault.plan;
  bw : Bandwidth.binding option;
  mutable buf : int array;
  mutable head : int;
  mutable tail : int;
  mutable launch_pushes : int;
  mutable dropped : int;
  mutable corrupt_detected : int;
  mutable drain_failures : int;
  mutable retries : int;
  mutable drains_delayed : int;
}

let checksum a b c = (((a * 0x9E3779B1) lxor b) * 0x85EBCA77) lxor c

let create ?(fault = Fault.none) ?bw ~cost () =
  {
    cost;
    fault;
    bw;
    buf = [||];
    head = 0;
    tail = 0;
    launch_pushes = 0;
    dropped = 0;
    corrupt_detected = 0;
    drain_failures = 0;
    retries = 0;
    drains_delayed = 0;
  }

let enqueue t a b c sum =
  if (t.tail + 1) * width > Array.length t.buf then begin
    let pending = t.tail - t.head in
    let buf =
      if Array.length t.buf >= 2 * (pending + 1) * width then t.buf
      else Array.make (max (64 * width) (2 * Array.length t.buf)) 0
    in
    Array.blit t.buf (t.head * width) buf 0 (pending * width);
    t.buf <- buf;
    t.head <- 0;
    t.tail <- pending
  end;
  let i = t.tail * width in
  t.buf.(i) <- a;
  t.buf.(i + 1) <- b;
  t.buf.(i + 2) <- c;
  t.buf.(i + 3) <- sum;
  t.tail <- t.tail + 1

let new_launch t = t.launch_pushes <- 0

(* On a shared device, neighbour traffic narrows the capacity left to
   this tenant; unshared (or with a reserved compute+memory lane) this
   is exactly [cost.channel_capacity]. *)
let capacity_now t =
  match t.bw with
  | None -> t.cost.channel_capacity
  | Some b -> Bandwidth.effective_capacity b.Bandwidth.meter ~tenant:b.Bandwidth.tenant

(* Device-side cost of one push attempt: past the per-launch capacity
   every record also pays a stall that grows with the backlog (queue
   backpressure), which is what turns record floods into hangs. On a
   shared memory path, neighbour saturation adds its own stall and the
   lost cycles are attributed to contention. *)
let charge_push t ~(stats : Stats.t) =
  let capacity = capacity_now t in
  let cycles =
    if t.launch_pushes > capacity then
      t.cost.channel_record
      + (t.cost.channel_stall * (1 + (t.launch_pushes / (16 * capacity))))
    else t.cost.channel_record
  in
  stats.tool_cycles <- stats.tool_cycles + cycles;
  match t.bw with
  | None -> ()
  | Some b ->
    let stall = Bandwidth.push_stall b.Bandwidth.meter ~tenant:b.Bandwidth.tenant in
    if stall > 0 then stats.contention_cycles <- stats.contention_cycles + stall

let try_push t ~(stats : Stats.t) a b c =
  t.launch_pushes <- t.launch_pushes + 1;
  stats.records_pushed <- stats.records_pushed + 1;
  charge_push t ~stats;
  match Fault.active t.fault with
  | None ->
    enqueue t a b c (checksum a b c);
    true
  | Some fa ->
    if Fault.fire fa Fault.Channel_stall then begin
      stats.tool_cycles <- stats.tool_cycles + t.cost.stall_burst;
      stats.fault_cycles <- stats.fault_cycles + t.cost.stall_burst
    end;
    (* Bounded retry-with-backoff: a failed push is retried up to
       [retry_limit] times, each attempt paying a doubling backoff;
       only exhausting the retries actually loses the record. *)
    let rec attempt k =
      if not (Fault.roll fa Fault.Channel_drop) then begin
        let sum =
          if Fault.fire fa Fault.Channel_corrupt then
            (* garbled in transit: the stored checksum no longer matches
               the payload, so the drain detects and discards it *)
            checksum a b c
            lxor (1 lsl (Fault.draw fa Fault.Channel_corrupt mod 30))
          else checksum a b c
        in
        enqueue t a b c sum;
        true
      end
      else if k < t.cost.retry_limit then begin
        t.retries <- t.retries + 1;
        let backoff = t.cost.retry_backoff lsl k in
        stats.tool_cycles <- stats.tool_cycles + backoff;
        stats.fault_cycles <- stats.fault_cycles + backoff;
        attempt (k + 1)
      end
      else begin
        Fault.note fa Fault.Channel_drop;
        t.dropped <- t.dropped + 1;
        false
      end
    in
    attempt 0

let push t ~stats a b c = ignore (try_push t ~stats a b c : bool)

let drain t ~(stats : Stats.t) f =
  let n = t.tail - t.head in
  match Fault.active t.fault with
  | Some a when n > 0 && Fault.fire a Fault.Drain_fail ->
    (* the host-side consumer failed mid-drain: everything pending is
       lost, but the cycles for the attempt were still paid *)
    t.head <- 0;
    t.tail <- 0;
    t.drain_failures <- t.drain_failures + 1;
    stats.host_cycles <- stats.host_cycles + (n * t.cost.host_per_record);
    stats.fault_cycles <- stats.fault_cycles + (n * t.cost.host_per_record);
    0
  | _ ->
    (* On a saturated shared memory path the host consumer only gets a
       budget of records per drain; the rest stay queued for the next
       drain — delayed detection, and lost detection if the run ends
       first. Unshared (or compute+memory partitioned), the budget is
       everything pending. *)
    let budget =
      match t.bw with
      | None -> n
      | Some b ->
        Bandwidth.drain_budget b.Bandwidth.meter ~tenant:b.Bandwidth.tenant
          ~queued:n
    in
    let budget = min n budget in
    if budget < n then t.drains_delayed <- t.drains_delayed + 1;
    stats.host_cycles <- stats.host_cycles + (budget * t.cost.host_per_record);
    let delivered = ref 0 in
    for _ = 1 to budget do
      let i = t.head * width in
      let a = t.buf.(i) and b = t.buf.(i + 1) and c = t.buf.(i + 2) in
      let sum = t.buf.(i + 3) in
      t.head <- t.head + 1;
      if checksum a b c = sum then begin
        incr delivered;
        f a b c
      end
      else t.corrupt_detected <- t.corrupt_detected + 1
    done;
    if t.head = t.tail then begin
      t.head <- 0;
      t.tail <- 0
    end;
    !delivered

let pushed_this_launch t = t.launch_pushes
let dropped t = t.dropped
let corrupt_detected t = t.corrupt_detected
let drain_failures t = t.drain_failures
let retries t = t.retries
let drains_delayed t = t.drains_delayed
let queued t = t.tail - t.head
let effective_capacity t = capacity_now t

(* The counters, then the pending packets. *)
type state = int array

let n_counters = 6

let state t =
  Array.append
    [| t.launch_pushes; t.dropped; t.corrupt_detected; t.drain_failures;
       t.retries; t.drains_delayed |]
    (Array.sub t.buf (t.head * width) ((t.tail - t.head) * width))

let restore t (st : state) =
  t.launch_pushes <- st.(0);
  t.dropped <- st.(1);
  t.corrupt_detected <- st.(2);
  t.drain_failures <- st.(3);
  t.retries <- st.(4);
  t.drains_delayed <- st.(5);
  let words = Array.length st - n_counters in
  if words > Array.length t.buf then t.buf <- Array.make words 0;
  Array.blit st n_counters t.buf 0 words;
  t.head <- 0;
  t.tail <- words / width

let equal_state t st = state t = st
