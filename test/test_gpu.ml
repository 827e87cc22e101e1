(* Substrate tests: device memory, the parameter ABI, the device→host
   channel (congestion model included), and run statistics. *)

open Fpx_gpu
module Fp32 = Fpx_num.Fp32

(* --- Memory --------------------------------------------------------------- *)

let test_alloc_alignment () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc m ~bytes:5 in
  let b = Memory.alloc m ~bytes:7 in
  Alcotest.(check int) "16-aligned a" 0 (a mod 16);
  Alcotest.(check int) "16-aligned b" 0 (b mod 16);
  Alcotest.(check bool) "disjoint" true (b >= a + 5)

let test_alloc_garbage_deterministic () =
  let m1 = Memory.create ~size_bytes:4096 in
  let m2 = Memory.create ~size_bytes:4096 in
  let a1 = Memory.alloc m1 ~bytes:64 in
  let a2 = Memory.alloc m2 ~bytes:64 in
  Alcotest.(check bool) "same garbage across devices" true
    (Memory.read_i32_array m1 ~addr:a1 ~len:16
    = Memory.read_i32_array m2 ~addr:a2 ~len:16);
  (* and it is garbage, not zero *)
  Alcotest.(check bool) "non-zero garbage" true
    (Array.exists (fun x -> x <> 0l) (Memory.read_i32_array m1 ~addr:a1 ~len:16))

let test_alloc_zeroed () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc_zeroed m ~bytes:64 in
  Alcotest.(check bool) "all zero" true
    (Array.for_all (( = ) 0l) (Memory.read_i32_array m ~addr:a ~len:16))

let test_typed_roundtrips () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc m ~bytes:64 in
  Memory.store_f64 m ~addr:a 3.14159;
  Alcotest.(check (float 1e-12)) "f64" 3.14159 (Memory.load_f64 m ~addr:a);
  Memory.store_f32 m ~addr:(a + 8) (Fp32.of_float 2.5);
  Alcotest.(check (float 1e-9)) "f32" 2.5
    (Fp32.to_float (Memory.load_f32 m ~addr:(a + 8)));
  Memory.store_i64 m ~addr:(a + 16) 0x1234_5678_9abc_def0L;
  Alcotest.(check int64) "i64" 0x1234_5678_9abc_def0L
    (Memory.load_i64 m ~addr:(a + 16));
  (* little-endian halves *)
  Alcotest.(check int32) "lo word" 0x9abc_def0l (Memory.load_i32 m ~addr:(a + 16))

let test_array_roundtrips () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc m ~bytes:256 in
  let xs = [| 1.5; -2.25; 1e30; -0.0 |] in
  Memory.write_f32_array m ~addr:a xs;
  Alcotest.(check (array (float 1e25))) "f32 array" xs
    (Memory.read_f32_array m ~addr:a ~len:4);
  Memory.write_f64_array m ~addr:(a + 64) xs;
  Alcotest.(check (array (float 1e-12))) "f64 array" xs
    (Memory.read_f64_array m ~addr:(a + 64) ~len:4)

let test_oom_and_fault () =
  let m = Memory.create ~size_bytes:256 in
  Alcotest.(check bool) "oom" true
    (try ignore (Memory.alloc m ~bytes:4096); false
     with Memory.Fault _ -> true);
  Alcotest.(check bool) "oob read" true
    (try ignore (Memory.load_i32 m ~addr:255); false
     with Memory.Fault _ -> true);
  Alcotest.(check bool) "negative addr" true
    (try ignore (Memory.load_i32 m ~addr:(-4)); false
     with Memory.Fault _ -> true)

(* --- Param ABI ------------------------------------------------------------ *)

let test_param_layout () =
  let params =
    [ Param.Ptr 64; Param.F64 2.5; Param.I32 7l; Param.F32 Fp32.one ]
  in
  (* ptr at 0x160, f64 aligned to 0x168, i32 at 0x170, f32 at 0x174 *)
  Alcotest.(check (list int)) "offsets" [ 0x160; 0x168; 0x170; 0x174 ]
    (Param.offsets params);
  let img = Param.marshal params in
  Alcotest.(check int32) "ptr" 64l (Bytes.get_int32_le img 0x160);
  Alcotest.(check (float 1e-12)) "f64" 2.5
    (Int64.float_of_bits (Bytes.get_int64_le img 0x168));
  Alcotest.(check int32) "i32" 7l (Bytes.get_int32_le img 0x170);
  Alcotest.(check int32) "f32" (Fp32.to_bits Fp32.one)
    (Bytes.get_int32_le img 0x174)

let test_param_abi_matches_compiler () =
  (* the compiler's view of the ABI must agree with the runtime's *)
  let k =
    Fpx_klang.Dsl.kernel "abi_check"
      [ ("p", Fpx_klang.Dsl.ptr Fpx_klang.Ast.F32);
        ("s", Fpx_klang.Dsl.scalar Fpx_klang.Ast.F64);
        ("n", Fpx_klang.Dsl.scalar Fpx_klang.Ast.I32) ]
      [ Fpx_klang.Dsl.let_ "i" Fpx_klang.Ast.I32 Fpx_klang.Dsl.tid ]
  in
  let compiler_offs = List.map snd (Fpx_klang.Compile.param_offsets k) in
  let runtime_offs =
    Param.offsets [ Param.Ptr 0; Param.F64 0.0; Param.I32 0l ]
  in
  Alcotest.(check (list int)) "ABI agreement" runtime_offs compiler_offs

(* --- Channel --------------------------------------------------------------- *)

(* Drain into a list of packets, checking the returned count. *)
let drain_all ch ~stats =
  let got = ref [] in
  let n = Channel.drain ch ~stats (fun a b c -> got := (a, b, c) :: !got) in
  Alcotest.(check int) "drain returns the delivered count"
    (List.length !got) n;
  List.rev !got

let packets = Alcotest.(list (triple int int int))

let test_channel_order_and_drain () =
  let stats = Stats.create () in
  let ch = Channel.create ~cost:Cost.default () in
  Channel.new_launch ch;
  let xs = [ (1, 10, -1); (2, 20, -2); (3, 30, -3) ] in
  List.iter (fun (a, b, c) -> Channel.push ch ~stats a b c) xs;
  Alcotest.check packets "fifo" xs (drain_all ch ~stats);
  Alcotest.check packets "empty after drain" [] (drain_all ch ~stats);
  Alcotest.(check int) "records counted" 3 stats.Stats.records_pushed

let test_channel_costs () =
  let cost = Cost.default in
  let stats = Stats.create () in
  let ch = Channel.create ~cost () in
  Channel.new_launch ch;
  Channel.push ch ~stats 0 0 0;
  Alcotest.(check int) "uncongested device cost" cost.Cost.channel_record
    stats.Stats.tool_cycles;
  ignore (drain_all ch ~stats);
  Alcotest.(check int) "host cost" cost.Cost.host_per_record
    stats.Stats.host_cycles

let test_channel_congestion () =
  let cost = { Cost.default with Cost.channel_capacity = 4 } in
  let stats = Stats.create () in
  let ch = Channel.create ~cost () in
  Channel.new_launch ch;
  for i = 1 to 4 do Channel.push ch ~stats i i i done;
  let before = stats.Stats.tool_cycles in
  Channel.push ch ~stats 5 5 5;
  let marginal = stats.Stats.tool_cycles - before in
  Alcotest.(check bool) "congested record costs more" true
    (marginal > cost.Cost.channel_record);
  (* new launch resets the congestion counter *)
  Channel.new_launch ch;
  let before = stats.Stats.tool_cycles in
  Channel.push ch ~stats 6 6 6;
  Alcotest.(check int) "reset after new launch" cost.Cost.channel_record
    (stats.Stats.tool_cycles - before)

let test_channel_congestion_grows () =
  (* the stall per record rises with the backlog (the hang mechanism) *)
  let cost = { Cost.default with Cost.channel_capacity = 2 } in
  let stats = Stats.create () in
  let ch = Channel.create ~cost () in
  Channel.new_launch ch;
  let marginal_at n =
    while Channel.pushed_this_launch ch < n do
      Channel.push ch ~stats 0 0 0
    done;
    let before = stats.Stats.tool_cycles in
    Channel.push ch ~stats 0 0 0;
    stats.Stats.tool_cycles - before
  in
  let early = marginal_at 4 in
  let late = marginal_at 200 in
  Alcotest.(check bool) "backpressure grows" true (late > early)

(* --- Stats ------------------------------------------------------------------ *)

let test_stats_add_and_slowdown () =
  let a = Stats.create () in
  a.Stats.base_cycles <- 100;
  a.Stats.tool_cycles <- 150;
  a.Stats.host_cycles <- 50;
  Alcotest.(check (float 1e-9)) "slowdown" 3.0 (Stats.slowdown a);
  let b = Stats.create () in
  b.Stats.base_cycles <- 100;
  b.Stats.records_pushed <- 7;
  Stats.add a b;
  Alcotest.(check int) "accumulated base" 200 a.Stats.base_cycles;
  Alcotest.(check int) "accumulated records" 7 a.Stats.records_pushed;
  Alcotest.(check int) "total" 400 (Stats.total_cycles a)

let test_stats_empty_slowdown () =
  Alcotest.(check (float 1e-9)) "no base = 1.0" 1.0
    (Stats.slowdown (Stats.create ()))

let test_stats_zero_base_nonzero_overhead () =
  (* a launch that executes no base instructions but is still charged
     tool/host cycles (e.g. an empty kernel under instrumentation) has an
     infinite true ratio, not a flattering 1.0 *)
  let s = Stats.create () in
  s.Stats.tool_cycles <- 40;
  Alcotest.(check bool) "tool-only is +inf" true
    (Stats.slowdown s = Float.infinity);
  let h = Stats.create () in
  h.Stats.host_cycles <- 3;
  Alcotest.(check bool) "host-only is +inf" true
    (Stats.slowdown h = Float.infinity)

(* --- Memory contract: logical 64 MiB, backed only where used ---------- *)

let mib64 = 64 * 1024 * 1024

let test_fresh_memory_reads_zero () =
  let m = (Device.create ()).Device.memory in
  Alcotest.(check int) "logical size" mib64 (Memory.size m);
  let a = Memory.alloc m ~bytes:100 in
  (* from just past the break to the last word of the logical space *)
  List.iter
    (fun addr ->
      Alcotest.(check int32) (Printf.sprintf "i32 @ 0x%x" addr) 0l
        (Memory.load_i32 m ~addr);
      if addr + 8 <= mib64 then
        Alcotest.(check int64) (Printf.sprintf "i64 @ 0x%x" addr) 0L
          (Memory.load_i64 m ~addr))
    [ a + 100; a + 104; 4092; 4096; 0x10000; 0x2fffffc; 0x3000000;
      mib64 - 8; mib64 - 4 ];
  Alcotest.(check bool) "past the logical end faults" true
    (try ignore (Memory.load_i32 m ~addr:(mib64 - 2)); false
     with Memory.Fault _ -> true)

let test_store_far_above_brk () =
  let far = 0x3000000 in
  let m = Memory.create ~size_bytes:mib64 in
  let d0 = Memory.digest m in
  Memory.store_i32 m ~addr:far 0x1234_5678l;
  Memory.store_i64 m ~addr:(far + 0x100) 0x0123_4567_89ab_cdefL;
  Alcotest.(check int32) "reads back" 0x1234_5678l (Memory.load_i32 m ~addr:far);
  Alcotest.(check int64) "reads back (i64)" 0x0123_4567_89ab_cdefL
    (Memory.load_i64 m ~addr:(far + 0x100));
  Alcotest.(check string) "digest unchanged" d0 (Memory.digest m);
  (* an allocation that reaches over the stored word overwrites it with
     the same garbage a device that never stored there gets; the word
     stored past the allocation's end survives the move into the dense
     prefix *)
  let fresh = Memory.create ~size_bytes:mib64 in
  let bytes = far + 64 - 16 in
  let a = Memory.alloc m ~bytes and a' = Memory.alloc fresh ~bytes in
  Alcotest.(check int) "same address" a' a;
  Alcotest.(check (array int32)) "deterministic garbage over the store"
    (Memory.read_i32_array fresh ~addr:(far - 32) ~len:24)
    (Memory.read_i32_array m ~addr:(far - 32) ~len:24);
  Alcotest.(check bool) "garbage, not the stored word" true
    (Memory.load_i32 m ~addr:far <> 0x1234_5678l);
  Alcotest.(check string) "digest as if never stored" (Memory.digest fresh)
    (Memory.digest m);
  Alcotest.(check int64) "store past the allocation kept"
    0x0123_4567_89ab_cdefL
    (Memory.load_i64 m ~addr:(far + 0x100))

let test_straddling_accesses () =
  let m = Memory.create ~size_bytes:mib64 in
  let dense_end = 4096 and page_end = 0x201000 in
  (* 8- and 4-byte accesses across the dense end and across a boundary
     between two sparse pages, one of them never stored before *)
  List.iter
    (fun edge ->
      List.iter
        (fun off ->
          let addr = edge - off in
          let v = Int64.(logor (shift_left (of_int addr) 20) 0xabcdefL) in
          Memory.store_i64 m ~addr v;
          Alcotest.(check int64) (Printf.sprintf "i64 @ edge-%d" off) v
            (Memory.load_i64 m ~addr);
          Alcotest.(check int32) (Printf.sprintf "hi i32 @ edge-%d" off)
            (Int64.to_int32 (Int64.shift_right_logical v 32))
            (Memory.load_i32 m ~addr:(addr + 4));
          let w = Int32.of_int (0x5a00 + off) in
          Memory.store_i32 m ~addr:(edge - 2) w;
          Alcotest.(check int32) (Printf.sprintf "i32 across edge, off %d" off)
            w (Memory.load_i32 m ~addr:(edge - 2)))
        [ 7; 4; 1 ])
    [ dense_end; page_end ];
  (* growing the dense prefix over the lower of the two stored pages
     keeps every stored byte, in the prefix and in the page above it *)
  let words = List.init 16 (fun k -> page_end - 8 + k) in
  let before = List.map (fun addr -> Memory.load_i32 m ~addr) words in
  Alcotest.(check bool) "something stored there" true
    (List.exists (fun w -> w <> 0l) before);
  ignore (Memory.alloc m ~bytes:(page_end - 0x800 - 16));
  Alcotest.(check (list int32)) "bytes kept across the move" before
    (List.map (fun addr -> Memory.load_i32 m ~addr) words)

let test_device_is_small () =
  let w = Obj.reachable_words (Obj.repr (Device.create ())) in
  Alcotest.(check bool)
    (Printf.sprintf "fresh device: %d reachable words < 4096" w)
    true (w < 4096)

(* --- Channel: flat packets -------------------------------------------- *)

let test_channel_push_allocates_nothing () =
  let stats = Stats.create () in
  let ch = Channel.create ~cost:Cost.default () in
  Channel.new_launch ch;
  for i = 1 to 10_000 do Channel.push ch ~stats i i i done;
  ignore (Channel.drain ch ~stats (fun _ _ _ -> ()) : int);
  Channel.new_launch ch;
  let probe0 = Gc.minor_words () in
  let probe1 = Gc.minor_words () in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do Channel.push ch ~stats i (i + 1) (-i) done;
  let after = Gc.minor_words () in
  Alcotest.(check int) "minor words over 10,000 pushes" 0
    (int_of_float (after -. before -. (probe1 -. probe0)));
  Alcotest.(check int) "all queued" 10_000 (Channel.queued ch)

let test_channel_capped_drain_keeps_order () =
  let cost = Cost.default in
  let meter =
    Bandwidth.create ~cost ~shares:[| (0.5, 0.5); (0.5, 0.5) |] ()
  in
  (* the neighbour saturates the shared memory path *)
  Bandwidth.note_launch meter ~tenant:1
    ~records:(4 * cost.Cost.mem_bw_tokens) ~warps:1;
  let bw = { Bandwidth.meter; tenant = 0 } in
  let stats = Stats.create () in
  let ch = Channel.create ~bw ~cost () in
  Channel.new_launch ch;
  let pkt i = (i, 7 * i, -i) in
  for i = 1 to 100 do
    let a, b, c = pkt i in
    Channel.push ch ~stats a b c
  done;
  let first = drain_all ch ~stats in
  let k = List.length first in
  Alcotest.(check bool) "budget below the queue" true (k > 0 && k < 100);
  Alcotest.check packets "a prefix, in push order" (List.init k (fun j -> pkt (j + 1)))
    first;
  Alcotest.(check int) "rest queued" (100 - k) (Channel.queued ch);
  Alcotest.(check int) "drain delayed" 1 (Channel.drains_delayed ch);
  (* more traffic behind the leftovers, then drain to empty *)
  for i = 101 to 300 do
    let a, b, c = pkt i in
    Channel.push ch ~stats a b c
  done;
  let rest = ref [] in
  while Channel.queued ch > 0 do
    rest := !rest @ drain_all ch ~stats
  done;
  Alcotest.check packets "the rest, in push order"
    (List.init (300 - k) (fun j -> pkt (k + j + 1)))
    !rest

(* --- Warp-step pushes and recycled buffers ------------------------------ *)

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

module Fault = Fpx_fault.Fault

let channel_faults ~rate seed =
  Fault.of_spec
    (Fault.spec
       ~sites:[ Fault.Channel_drop; Fault.Channel_corrupt; Fault.Channel_stall ]
       ~rate ~seed ())

(* Everything a push can change, as the public API shows it. *)
let push_effects ch (stats : Stats.t) =
  ( (stats.Stats.tool_cycles, stats.Stats.fault_cycles,
     stats.Stats.records_pushed),
    (Channel.pushed_this_launch ch, Channel.dropped ch, Channel.retries ch) )

(* One warp-step push charges, counts and queues exactly what pushing
   each executing lane's record in ascending order does: across the
   capacity threshold and the stall segments above it, for partial and
   empty lane masks, one-word (RZ high word) and two-word values, and
   under a fault plan (the per-record path, same draws). *)
let prop_push_lanes_matches_pushes =
  let gen =
    QCheck.Gen.(
      let* capacity = int_range 1 64 in
      (* anywhere, or within a warp step of the capacity threshold or
         of a stall-segment boundary *)
      let* before =
        oneof
          [ int_range 0 3000;
            map (fun d -> max 0 (capacity - d)) (int_range (-2) 33);
            map2
              (fun m d -> max 0 ((16 * capacity * m) - d))
              (int_range 1 4) (int_range (-2) 33) ]
      in
      let* mask = oneof [ return 0; return 0xffffffff; int_bound 0xffffffff ] in
      let* nslots = int_range 2 8 in
      let* lo = int_bound (nslots - 1) in
      let* hi = oneof [ return Fpx_sass.Operand.rz; int_bound (nslots - 1) ] in
      let* a = int_bound 1_000_000 in
      let* seed = oneof [ return None; map Option.some (int_bound 1000) ] in
      let+ regs = array_size (return (32 * nslots)) (int_bound 0xffffffff) in
      (capacity, before, mask, nslots, lo, hi, a, seed, regs))
  in
  QCheck.Test.make ~name:"channel: warp-step push = per-lane pushes" ~count:300
    (QCheck.make gen)
    (fun (capacity, before, mask, nslots, lo, hi, a, seed, regs) ->
      let cost = { Cost.default with Cost.channel_capacity = capacity } in
      let api = { Exec.warp_index = 0; executing = mask; regs; nslots } in
      let run step =
        let fault = Option.fold ~none:Fault.none ~some:(channel_faults ~rate:0.2) seed in
        let ch = Channel.create ~fault ~cost () in
        let stats = Stats.create () in
        Channel.new_launch ch;
        for i = 1 to before do Channel.push ch ~stats i i i done;
        ignore (Channel.drain ch ~stats (fun _ _ _ -> ()) : int);
        step ch stats;
        let effects = push_effects ch stats in
        let got = ref [] in
        ignore
          (Channel.drain ch ~stats (fun a b c -> got := (a, b, c) :: !got)
            : int);
        (effects, List.rev !got, Channel.corrupt_detected ch)
      in
      let per_lane ch stats =
        for lane = 0 to 31 do
          if (mask lsr lane) land 1 = 1 then
            let c = Exec.word api ~lane hi in
            Channel.push ch ~stats a (Exec.word api ~lane lo) c
        done
      in
      run (fun ch stats -> Channel.push_lanes ch ~stats api a ~lo ~hi)
      = run per_lane)

(* Two channels alive on one domain hand the domain's spare buffer back
   and forth as they drain and refill; each must drain exactly its own
   packets, in push order, whatever the interleaving. *)
let prop_two_channels_keep_their_packets =
  let op =
    QCheck.Gen.(
      oneof
        [ map (fun n -> `Push (0, n)) (int_range 1 700);
          map (fun n -> `Push (1, n)) (int_range 1 700);
          return (`Drain 0);
          return (`Drain 1) ])
  in
  QCheck.Test.make ~name:"channel: two live channels keep their packets"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) op))
    (fun ops ->
      let stats = Stats.create () in
      let chs = Array.init 2 (fun _ -> Channel.create ~cost:Cost.default ()) in
      let model = Array.make 2 [] and next = ref 0 in
      let drain c =
        let got = ref [] in
        ignore
          (Channel.drain chs.(c) ~stats (fun a b c -> got := (a, b, c) :: !got)
            : int);
        let ok = List.rev !got = List.rev model.(c) in
        model.(c) <- [];
        ok
      in
      List.for_all
        (function
          | `Push (c, n) ->
            for _ = 1 to n do
              incr next;
              let p = (c, !next, -(!next)) in
              model.(c) <- p :: model.(c);
              let a, b, c' = p in
              Channel.push chs.(c) ~stats a b c'
            done;
            true
          | `Drain c -> drain c)
        ops
      && drain 0 && drain 1)

(* A checkpoint of a channel whose buffer came from the spare restores
   its counters and pending packets, into itself or a fresh channel. *)
let test_channel_state_recycled () =
  let stats = Stats.create () in
  let first = Channel.create ~cost:Cost.default () in
  for i = 1 to 5000 do Channel.push first ~stats i i i done;
  ignore (drain_all first ~stats : (int * int * int) list);
  let ch = Channel.create ~cost:Cost.default () in
  Channel.new_launch ch;
  for i = 1 to 300 do Channel.push ch ~stats i (2 * i) (-i) done;
  let st = Channel.state ch in
  Alcotest.(check bool) "equal to its own state" true (Channel.equal_state ch st);
  let expect = List.init 300 (fun j -> (j + 1, 2 * (j + 1), -(j + 1))) in
  Channel.push ch ~stats 0 0 0;
  Alcotest.(check bool) "a push moves the state" false
    (Channel.equal_state ch st);
  Alcotest.check packets "drained" (expect @ [ (0, 0, 0) ])
    (drain_all ch ~stats);
  Channel.restore ch st;
  Alcotest.(check bool) "restored" true (Channel.equal_state ch st);
  Alcotest.(check int) "launch count restored" 300
    (Channel.pushed_this_launch ch);
  Alcotest.check packets "restored packets" expect (drain_all ch ~stats);
  let fresh = Channel.create ~cost:Cost.default () in
  Channel.restore fresh st;
  Alcotest.(check bool) "restored into a fresh channel" true
    (Channel.equal_state fresh st);
  Alcotest.check packets "fresh channel's packets" expect
    (drain_all fresh ~stats)

(* Under a fault plan a checkpoint also carries the fault counters, and
   corrupted packets stay corrupted across a restore. *)
let test_channel_state_faulted () =
  let stats = Stats.create () in
  let ch = Channel.create ~fault:(channel_faults ~rate:0.5 7) ~cost:Cost.default () in
  Channel.new_launch ch;
  for i = 1 to 400 do Channel.push ch ~stats i i i done;
  Alcotest.(check bool) "some dropped" true (Channel.dropped ch > 0);
  let st = Channel.state ch in
  let counters ch =
    ( Channel.pushed_this_launch ch,
      (Channel.dropped ch, Channel.retries ch, Channel.queued ch) )
  in
  let at_state = counters ch in
  let first = drain_all ch ~stats in
  let corrupt = Channel.corrupt_detected ch in
  Alcotest.(check bool) "some corrupted" true (corrupt > 0);
  Channel.restore ch st;
  Alcotest.(check bool) "restored" true (Channel.equal_state ch st);
  Alcotest.(check (pair int (triple int int int))) "counters restored"
    at_state (counters ch);
  Alcotest.(check int) "corrupt count restored" 0 (Channel.corrupt_detected ch);
  Alcotest.check packets "same delivered packets" first
    (drain_all ch ~stats);
  Alcotest.(check int) "same corrupted packets" corrupt
    (Channel.corrupt_detected ch)

let suite =
  ( "gpu",
    [ Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
      Alcotest.test_case "deterministic garbage" `Quick
        test_alloc_garbage_deterministic;
      Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
      Alcotest.test_case "typed load/store" `Quick test_typed_roundtrips;
      Alcotest.test_case "array transfer" `Quick test_array_roundtrips;
      Alcotest.test_case "oom and faults" `Quick test_oom_and_fault;
      Alcotest.test_case "param layout" `Quick test_param_layout;
      Alcotest.test_case "param ABI agreement" `Quick
        test_param_abi_matches_compiler;
      Alcotest.test_case "channel fifo" `Quick test_channel_order_and_drain;
      Alcotest.test_case "channel costs" `Quick test_channel_costs;
      Alcotest.test_case "channel congestion" `Quick test_channel_congestion;
      Alcotest.test_case "channel backpressure" `Quick
        test_channel_congestion_grows;
      Alcotest.test_case "stats add/slowdown" `Quick
        test_stats_add_and_slowdown;
      Alcotest.test_case "stats empty" `Quick test_stats_empty_slowdown;
      Alcotest.test_case "stats zero-base overhead" `Quick
        test_stats_zero_base_nonzero_overhead;
      Alcotest.test_case "memory: zeros above brk" `Quick
        test_fresh_memory_reads_zero;
      Alcotest.test_case "memory: store far above brk" `Quick
        test_store_far_above_brk;
      Alcotest.test_case "memory: straddling accesses" `Quick
        test_straddling_accesses;
      Alcotest.test_case "device: backs no 64 MiB buffer" `Quick
        test_device_is_small;
      Alcotest.test_case "channel: push allocates nothing" `Quick
        test_channel_push_allocates_nothing;
      Alcotest.test_case "channel: capped drain keeps order" `Quick
        test_channel_capped_drain_keeps_order;
      qcheck_case prop_push_lanes_matches_pushes;
      qcheck_case prop_two_channels_keep_their_packets;
      Alcotest.test_case "channel: state of a recycled buffer" `Quick
        test_channel_state_recycled;
      Alcotest.test_case "channel: state under faults" `Quick
        test_channel_state_faulted ] )
