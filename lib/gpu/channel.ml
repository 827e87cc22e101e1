module Fault = Fpx_fault.Fault
module A = Bigarray.Array1

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

(* Packets are [width] consecutive ints of [buf]: the three payload
   words and a checksum over them, so in-transit corruption is detected
   at the host and discarded instead of being mis-decoded. Pending
   packets are [head, tail) (in packets). When the tail reaches the
   end, the pending packets slide down to the start if they and the new
   ones fit in half the buffer; otherwise the buffer doubles.

   The buffer is off-heap (the GC neither scans nor zero-fills it), and
   a drain that empties the queue hands it to its domain's one spare
   slot; the next push on that domain that needs room takes it back.
   Taking empties the slot, so two live channels never share a
   buffer. *)
let width = 4

let no_buf : buf = A.create Bigarray.int Bigarray.c_layout 0
let spare = Domain.DLS.new_key (fun () -> ref no_buf)

type t = {
  cost : Cost.t;
  fault : Fault.plan;
  bw : Bandwidth.binding option;
  mutable buf : buf;
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
    buf = no_buf;
    head = 0;
    tail = 0;
    launch_pushes = 0;
    dropped = 0;
    corrupt_detected = 0;
    drain_failures = 0;
    retries = 0;
    drains_delayed = 0;
  }

(* An emptied channel gives its buffer back: the domain keeps the larger
   of it and the spare it holds. *)
let release t =
  let slot = Domain.DLS.get spare in
  if A.dim t.buf > A.dim !slot then slot := t.buf;
  t.buf <- no_buf;
  t.head <- 0;
  t.tail <- 0

(* Room for [n] more packets after [tail]. *)
let make_room t n =
  if A.dim t.buf = 0 then begin
    let slot = Domain.DLS.get spare in
    t.buf <- !slot;
    slot := no_buf
  end;
  if (t.tail + n) * width > A.dim t.buf then begin
    let pending = (t.tail - t.head) * width in
    let need = pending + (n * width) in
    let buf =
      if A.dim t.buf >= 2 * need then t.buf
      else
        A.create Bigarray.int Bigarray.c_layout
          (max (64 * width) (2 * max (A.dim t.buf) need))
    in
    A.blit (A.sub t.buf (t.head * width) pending) (A.sub buf 0 pending);
    t.buf <- buf;
    t.tail <- t.tail - t.head;
    t.head <- 0
  end

let[@inline] write t a b c sum =
  let i = t.tail * width in
  A.unsafe_set t.buf i a;
  A.unsafe_set t.buf (i + 1) b;
  A.unsafe_set t.buf (i + 2) c;
  A.unsafe_set t.buf (i + 3) sum;
  t.tail <- t.tail + 1

let enqueue t a b c sum =
  if (t.tail + 1) * width > A.dim t.buf then make_room t 1;
  write t a b c sum

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

(* [charge_push]'s stall terms for the pushes that raise [launch_pushes]
   to [first .. last], summed in closed form: the term is constant over
   each run of [16 * capacity] counts. *)
let stall_cycles t ~first ~last =
  let capacity = t.cost.channel_capacity in
  let seg = 16 * capacity in
  let total = ref 0 and p = ref (max first (capacity + 1)) in
  while !p <= last do
    let q = !p / seg in
    let upto = min last (((q + 1) * seg) - 1) in
    total := !total + ((upto - !p + 1) * t.cost.channel_stall * (1 + q));
    p := upto + 1
  done;
  !total

(* [Exec.word]'s RZ and in-range reads, inlined: [push_lanes] reads two
   registers per executing lane, and the build inlines nothing across
   modules. Out of range, [Exec.word] raises its trap. *)
let[@inline] word (api : Exec.warp_api) ~lane r =
  if r = Fpx_sass.Operand.rz then 0
  else if r < api.Exec.nslots then api.Exec.regs.((lane * api.Exec.nslots) + r)
  else Exec.word api ~lane r

let popcount32 x =
  let x = x land 0xffffffff in
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) land 0xffffffff) lsr 24

let push_lanes t ~(stats : Stats.t) (api : Exec.warp_api) a ~lo ~hi =
  let executing = api.Exec.executing in
  let unmetered =
    match t.bw with None -> not (Fault.is_active t.fault) | Some _ -> false
  in
  if unmetered then begin
    let k = popcount32 executing in
    if (t.tail + k) * width > A.dim t.buf then make_room t k;
    for lane = 0 to 31 do
      if (executing lsr lane) land 1 = 1 then begin
        let c = word api ~lane hi in
        let b = word api ~lane lo in
        write t a b c (checksum a b c)
      end
    done;
    (* charged after the writes: a register out of range traps on the
       first lane (high word first), before anything is charged, as the
       per-record pushes do *)
    let first = t.launch_pushes + 1 in
    t.launch_pushes <- t.launch_pushes + k;
    stats.records_pushed <- stats.records_pushed + k;
    stats.tool_cycles <-
      stats.tool_cycles + (k * t.cost.channel_record)
      + stall_cycles t ~first ~last:t.launch_pushes
  end
  else
    for lane = 0 to 31 do
      if (executing lsr lane) land 1 = 1 then begin
        let c = word api ~lane hi in
        push t ~stats a (word api ~lane lo) c
      end
    done

let drain t ~(stats : Stats.t) f =
  let n = t.tail - t.head in
  match Fault.active t.fault with
  | Some a when n > 0 && Fault.fire a Fault.Drain_fail ->
    (* the host-side consumer failed mid-drain: everything pending is
       lost, but the cycles for the attempt were still paid *)
    release t;
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
      let a = A.unsafe_get t.buf i and b = A.unsafe_get t.buf (i + 1) in
      let c = A.unsafe_get t.buf (i + 2) and sum = A.unsafe_get t.buf (i + 3) in
      t.head <- t.head + 1;
      if checksum a b c = sum then begin
        incr delivered;
        f a b c
      end
      else t.corrupt_detected <- t.corrupt_detected + 1
    done;
    if t.head = t.tail then release t;
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
  let words = (t.tail - t.head) * width in
  let st = Array.make (n_counters + words) 0 in
  st.(0) <- t.launch_pushes;
  st.(1) <- t.dropped;
  st.(2) <- t.corrupt_detected;
  st.(3) <- t.drain_failures;
  st.(4) <- t.retries;
  st.(5) <- t.drains_delayed;
  for i = 0 to words - 1 do
    st.(n_counters + i) <- A.unsafe_get t.buf ((t.head * width) + i)
  done;
  st

let restore t (st : state) =
  t.launch_pushes <- st.(0);
  t.dropped <- st.(1);
  t.corrupt_detected <- st.(2);
  t.drain_failures <- st.(3);
  t.retries <- st.(4);
  t.drains_delayed <- st.(5);
  let words = Array.length st - n_counters in
  t.head <- 0;
  t.tail <- 0;
  if words > 0 then make_room t (words / width);
  for i = 0 to words - 1 do
    A.unsafe_set t.buf i st.(n_counters + i)
  done;
  t.tail <- words / width

let equal_state t st = state t = st
