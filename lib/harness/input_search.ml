type result = {
  best_input : float array;
  best_count : int;
  evaluations : int;
  trace : (float array * int) list;
}

(* Deterministic xorshift in [0,1), from a fixed seed. *)
let make_rng () =
  let state = ref 1 in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) land 0x3fffffff in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0x3fffffff in
    state := x;
    float_of_int x /. 1073741824.0

let search ?(iters = 60) ~lo ~hi objective =
  let dims = Array.length lo in
  if Array.length hi <> dims then
    invalid_arg "Input_search.search: lo/hi length mismatch";
  let rng = make_rng () in
  let trace = ref [] in
  let evaluations = ref 0 in
  let eval x =
    incr evaluations;
    let c = objective x in
    trace := (Array.copy x, c) :: !trace;
    c
  in
  let sample () =
    Array.init dims (fun d -> lo.(d) +. ((hi.(d) -. lo.(d)) *. rng ()))
  in
  (* Phase 1: quasi-random exploration over the box. *)
  let explore = max 8 (iters / 2) in
  let best = ref (Array.copy lo) in
  let best_c = ref (eval lo) in
  let consider x =
    let c = eval x in
    if c > !best_c then begin
      best := Array.copy x;
      best_c := c
    end
  in
  consider hi;
  for _ = 1 to explore - 2 do
    consider (sample ())
  done;
  (* Phase 2: coordinate refinement around the incumbent — shrink a
     bracket per dimension, keeping whichever endpoint scores higher. *)
  let budget = ref (iters - !evaluations) in
  let width = Array.init dims (fun d -> (hi.(d) -. lo.(d)) /. 4.0) in
  while !budget > 0 do
    for d = 0 to dims - 1 do
      if !budget > 0 then begin
        let probe delta =
          let x = Array.copy !best in
          x.(d) <- Float.min hi.(d) (Float.max lo.(d) (x.(d) +. delta));
          x
        in
        decr budget;
        consider (probe width.(d));
        if !budget > 0 then begin
          decr budget;
          consider (probe (-.width.(d)))
        end;
        width.(d) <- width.(d) /. 2.0
      end
    done
  done;
  {
    best_input = !best;
    best_count = !best_c;
    evaluations = !evaluations;
    trace = List.rev !trace;
  }

let count_exceptions kernel ~params_of ~grid ~block input =
  let module W = Fpx_workloads.Workload in
  let w =
    W.make ~name:kernel.Fpx_klang.Ast.kname ~suite:W.Cuda_samples
      ~kernels:[ kernel ] (fun ctx ->
        W.launch ctx ~grid ~block (W.compile ctx kernel)
          (params_of input (W.device ctx)))
  in
  let m =
    Runner.run ~tool:(Runner.Detector Gpu_fpx.Detector.default_config) w
  in
  m.Runner.total_exceptions
