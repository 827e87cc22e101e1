type site =
  | Channel_drop
  | Channel_corrupt
  | Channel_stall
  | Drain_fail
  | Jit_fail
  | Gt_alloc_fail
  | Mem_bit_flip
  | Watchdog_exhaust
  | Reg_bit_flip
  | Shmem_bit_flip
  | Instr_bit_flip

let all_sites =
  [ Channel_drop; Channel_corrupt; Channel_stall; Drain_fail; Jit_fail;
    Gt_alloc_fail; Mem_bit_flip; Watchdog_exhaust; Reg_bit_flip;
    Shmem_bit_flip; Instr_bit_flip ]

let site_to_string = function
  | Channel_drop -> "channel-drop"
  | Channel_corrupt -> "channel-corrupt"
  | Channel_stall -> "channel-stall"
  | Drain_fail -> "drain-fail"
  | Jit_fail -> "jit-fail"
  | Gt_alloc_fail -> "gt-alloc-fail"
  | Mem_bit_flip -> "mem-bit-flip"
  | Watchdog_exhaust -> "watchdog-exhaust"
  | Reg_bit_flip -> "reg-bit-flip"
  | Shmem_bit_flip -> "shmem-bit-flip"
  | Instr_bit_flip -> "instr-bit-flip"

let site_of_string s =
  List.find_opt (fun x -> site_to_string x = s) all_sites

let site_idx = function
  | Channel_drop -> 0
  | Channel_corrupt -> 1
  | Channel_stall -> 2
  | Drain_fail -> 3
  | Jit_fail -> 4
  | Gt_alloc_fail -> 5
  | Mem_bit_flip -> 6
  | Watchdog_exhaust -> 7
  | Reg_bit_flip -> 8
  | Shmem_bit_flip -> 9
  | Instr_bit_flip -> 10

let n_sites = List.length all_sites

(* A targeted architectural fault: one flip at exact coordinates, as
   opposed to the rate-driven sites above. Coordinates are plain ints
   and kernel names are strings so this library keeps zero
   dependencies; the executor and JIT interpret them. *)
type arch =
  | Reg_flip of { at_dyn : int; lane : int; reg : int; bit : int }
  | Shmem_flip of { at_dyn : int; word : int; bit : int }
  | Instr_flip of { kernel : string; pc : int; sel : int }

let arch_site = function
  | Reg_flip _ -> Reg_bit_flip
  | Shmem_flip _ -> Shmem_bit_flip
  | Instr_flip _ -> Instr_bit_flip

let arch_to_string = function
  | Reg_flip { at_dyn; lane; reg; bit } ->
    Printf.sprintf "reg R%d bit %d lane %d @dyn %d" reg bit lane at_dyn
  | Shmem_flip { at_dyn; word; bit } ->
    Printf.sprintf "shmem word %d bit %d @dyn %d" word bit at_dyn
  | Instr_flip { kernel; pc; sel } ->
    Printf.sprintf "instr %s pc %d sel %d" kernel pc sel

type spec = {
  seed : int;
  rate : float;
  sites : site list;
  arch : arch option;
  budget : int option;
}

let spec ?(sites = all_sites) ?(rate = 0.01) ?arch ?budget ~seed () =
  { seed; rate; sites; arch; budget }

(* SplitMix64: one stream per site, split off the seed so the decision
   sequence at a site does not depend on the interleaving of decisions
   at other sites. *)
module Prng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let stream ~seed i =
    { state =
        mix (Int64.add (Int64.mul (Int64.of_int seed) golden)
               (Int64.of_int (i + 1))) }

  let make ~seed = stream ~seed 0

  let next s =
    s.state <- Int64.add s.state golden;
    mix s.state

  let split s i =
    { state = mix (Int64.add (next s) (Int64.of_int i)) }

  (* low 62 bits -> a non-negative OCaml int *)
  let bits s = Int64.to_int (Int64.logand (next s) 0x3FFFFFFFFFFFFFFFL)

  (* top 53 bits -> [0, 1) *)
  let uniform s =
    Int64.to_float (Int64.shift_right_logical (next s) 11) *. 0x1.0p-53

  let int s n = if n <= 1 then (ignore (next s); 0) else bits s mod n

  let bool s p = uniform s < p

  let pick ?(what = "array") s arr =
    let n = Array.length arr in
    if n = 0 then
      invalid_arg (Printf.sprintf "Fault.Prng.pick(%s): empty array" what)
    else arr.(int s n)
end

type stream = Prng.t

let uniform = Prng.uniform

type active = {
  seed : int;
  rate : float;
  rates : float array;  (* per site; 0.0 when the site is disabled *)
  streams : stream array;
  counts : int array;
  arch : arch option;
  mutable arch_countdown : int;
      (* warp-steps until a Reg_flip/Shmem_flip fires; -1 once fired
         (or for Instr_flip, which fires at JIT time instead) *)
  mutable arch_noted : bool;
  budget : int option;
}

type plan = Null | Active of active

let none = Null

let of_spec (s : spec) =
  let rates = Array.make n_sites 0.0 in
  List.iter (fun site -> rates.(site_idx site) <- s.rate) s.sites;
  let streams = Array.init n_sites (Prng.stream ~seed:s.seed) in
  let arch_countdown =
    match s.arch with
    | Some (Reg_flip { at_dyn; _ }) | Some (Shmem_flip { at_dyn; _ }) ->
      max 0 at_dyn
    | Some (Instr_flip _) | None -> -1
  in
  Active
    { seed = s.seed; rate = s.rate; rates; streams;
      counts = Array.make n_sites 0; arch = s.arch; arch_countdown;
      arch_noted = false; budget = s.budget }

let active = function Null -> None | Active a -> Some a
let is_active = function Null -> false | Active _ -> true

let seed a = a.seed
let rate a = a.rate

let roll a site =
  let i = site_idx site in
  (* always advance the stream, so enabling/disabling one site never
     shifts another site's sequence *)
  let u = uniform a.streams.(i) in
  u < a.rates.(i)

let note a site = a.counts.(site_idx site) <- a.counts.(site_idx site) + 1

let fire a site =
  let hit = roll a site in
  if hit then note a site;
  hit

let draw a site = Prng.bits a.streams.(site_idx site)

let injected a site = a.counts.(site_idx site)

let injected_counts a =
  List.filter_map
    (fun site ->
      let n = injected a site in
      if n > 0 then Some (site, n) else None)
    all_sites

let total_injected a = Array.fold_left ( + ) 0 a.counts

let reasons a =
  List.map
    (fun (site, n) -> Printf.sprintf "%s(%d)" (site_to_string site) n)
    (injected_counts a)

(* --- targeted architectural faults ----------------------------------- *)

let budget a = a.budget

let arch a = a.arch

(* Called once per warp-step by the executor. Counts down to the
   targeted dynamic instruction, then hands the descriptor back exactly
   once. O(1) and branch-predictable: the common path is one compare
   and one decrement. *)
let arch_tick a =
  if a.arch_countdown < 0 then None
  else if a.arch_countdown = 0 then begin
    a.arch_countdown <- -1;
    match a.arch with
    | Some ((Reg_flip _ | Shmem_flip _) as x) ->
      a.arch_noted <- true;
      note a (arch_site x);
      Some x
    | Some (Instr_flip _) | None -> None
  end
  else begin
    a.arch_countdown <- a.arch_countdown - 1;
    None
  end

(* A replayed launch's warp-steps, counted off in one go: the flip must
   not be among them. *)
let arch_skip a n =
  if a.arch_countdown >= 0 then begin
    if n > a.arch_countdown then
      invalid_arg "Fault.arch_skip: the flip lands in the skipped steps";
    a.arch_countdown <- a.arch_countdown - n
  end

(* Called by the JIT path at every launch of [kernel]; the mutation
   itself is deterministic, so applying it per-launch is idempotent.
   Noted once so degradation reasons stay tidy. *)
let arch_instr_flip a ~kernel =
  match a.arch with
  | Some (Instr_flip { kernel = k; pc; sel }) when String.equal k kernel ->
    if not a.arch_noted then begin
      a.arch_noted <- true;
      note a Instr_bit_flip
    end;
    Some (pc, sel)
  | _ -> None

let arch_fired a = a.arch_noted
