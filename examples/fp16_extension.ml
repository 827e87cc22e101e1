(* The FP16 extension (paper §3.1.2: the exception-record format
   reserves E_fp space "with future plans to include FP16 and more").

   Mixed-precision training is where half-precision overflow bites
   hardest: FP16 tops out at 65504. This example hand-assembles a
   packed-half (HFMA2) dot-product kernel — the shape of a tensor-core
   epilogue — feeds it an unscaled gradient, and lets the detector
   report the FP16 overflow and the NaN it turns into.

     dune exec examples/fp16_extension.exe *)

module Op = Fpx_sass.Operand
module Isa = Fpx_sass.Isa
module Instr = Fpx_sass.Instr
module Program = Fpx_sass.Program
module Gpu = Fpx_gpu
module Fp16 = Fpx_num.Fp16

(* acc(h2) = sum_k a[k](h2) * b[k](h2), 8 packed pairs per thread, then
   the packed halves are combined with one more HADD2. *)
let kernel =
  let body =
    [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 10 ];
      (* address of this thread's 8-element row (32 bytes) *)
      Instr.make Isa.IMAD
        [ Op.reg 11; Op.reg 10; Op.imm_i 32l; Op.cbank ~bank:0 ~offset:0x164 ];
      Instr.make Isa.IMAD
        [ Op.reg 12; Op.reg 10; Op.imm_i 32l; Op.cbank ~bank:0 ~offset:0x168 ];
      Instr.make Isa.MOV32I [ Op.reg 0; Op.imm_i 0l ] ]
    @ List.concat
        (List.init 8 (fun k ->
             [ Instr.make Isa.IADD
                 [ Op.reg 13; Op.reg 11; Op.imm_i (Int32.of_int (4 * k)) ];
               Instr.make (Isa.LDG Isa.W32) [ Op.reg 1; Op.reg 13 ];
               Instr.make Isa.IADD
                 [ Op.reg 13; Op.reg 12; Op.imm_i (Int32.of_int (4 * k)) ];
               Instr.make (Isa.LDG Isa.W32) [ Op.reg 2; Op.reg 13 ];
               Instr.make Isa.HFMA2 [ Op.reg 0; Op.reg 1; Op.reg 2; Op.reg 0 ]
             ]))
    @ [ (* combine the two packed lanes: acc + (acc >> 16) *)
        Instr.make Isa.SHR [ Op.reg 3; Op.reg 0; Op.imm_i 16l ];
        Instr.make Isa.HADD2 [ Op.reg 4; Op.reg 0; Op.reg 3 ];
        Instr.make Isa.IMAD
          [ Op.reg 14; Op.reg 10; Op.imm_i 4l; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 14; Op.reg 4 ] ]
  in
  Program.make ~name:"h1688gemm_fp16_epilogue" body

let fill_h2 mem ~addr values =
  List.iteri
    (fun i (lo, hi) ->
      Gpu.Memory.store_i32 mem ~addr:(addr + (4 * i))
        (Fp16.pack2 ~lo:(Fp16.of_float lo) ~hi:(Fp16.of_float hi)))
    values

let () =
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let mem = dev.Gpu.Device.memory in
  let n = 32 in
  let out = Gpu.Memory.alloc_zeroed mem ~bytes:(4 * n) in
  let a = Gpu.Memory.alloc_zeroed mem ~bytes:(32 * n) in
  let b = Gpu.Memory.alloc_zeroed mem ~bytes:(32 * n) in
  (* moderate activations, but one thread's gradient row was never
     loss-scaled: products around 2^18 overflow binary16 *)
  for t = 0 to n - 1 do
    let scale = if t = 3 then 512.0 else 0.5 in
    fill_h2 mem
      ~addr:(a + (32 * t))
      (List.init 8 (fun k -> (scale *. float_of_int (k + 1), scale)));
    fill_h2 mem
      ~addr:(b + (32 * t))
      (List.init 8 (fun k -> (512.0, 0.25 *. float_of_int (k + 1))))
  done;
  Fpx_nvbit.Runtime.launch rt ~grid:1 ~block:n
    ~params:[ Gpu.Param.Ptr out; Ptr a; Ptr b ]
    kernel;
  print_endline "=== detector report (FP16 extension) ===";
  List.iter print_endline (Gpu_fpx.Detector.log_lines det);
  Printf.printf "\nFP16 INF sites: %d   FP16 NaN sites: %d\n"
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Inf)
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP16 ~exce:Fpx_tool.Exce.Nan);
  let results = Gpu.Memory.read_i32_array mem ~addr:out ~len:n in
  let show t =
    let lo, _ = Fp16.unpack2 results.(t) in
    Printf.printf "thread %2d: %s\n" t (Fp16.to_string lo)
  in
  show 2;
  show 3;
  print_endline
    "\nThe unscaled row overflowed 65504 inside the HFMA2 chain — the\n\
     loss-scaling bug class that mixed-precision training guides warn\n\
     about, caught at the exact instruction.";

  (* The other half of the hazard: a *healthy* FP32 value that only
     overflows when narrowed to half. The detector checks the F2F cast
     destination too. *)
  let dev2 = Gpu.Device.create () in
  let rt2 = Fpx_nvbit.Runtime.create dev2 in
  let det2 = Gpu_fpx.Detector.create dev2 in
  Fpx_nvbit.Runtime.attach rt2 (Gpu_fpx.Detector.tool det2);
  let out2 = Gpu.Memory.alloc_zeroed dev2.Gpu.Device.memory ~bytes:4 in
  let cast_kernel =
    Program.make ~name:"store_half_epilogue"
      [ (* an FP32 accumulator of ~1e6: fine in single, INF in half *)
        Instr.make Isa.MOV32I
          [ Op.reg 1; Op.imm_f32 (Fpx_num.Fp32.of_float 1.0e6) ];
        Instr.make (Isa.F2F (Isa.FP16, Isa.FP32)) [ Op.reg 0; Op.reg 1 ];
        Instr.make Isa.MOV [ Op.reg 3; Op.cbank ~bank:0 ~offset:0x160 ];
        Instr.make (Isa.STG Isa.W32) [ Op.reg 3; Op.reg 0 ] ]
  in
  Fpx_nvbit.Runtime.launch rt2 ~grid:1 ~block:1
    ~params:[ Gpu.Param.Ptr out2 ] cast_kernel;
  print_endline "\n=== narrowing-cast check (F2F.F16.F32) ===";
  List.iter print_endline (Gpu_fpx.Detector.log_lines det2);
  print_endline
    "\nThe FP32 accumulator held 1e6 — a perfectly ordinary number —\n\
     and the exception only exists at the half-precision store cast."
