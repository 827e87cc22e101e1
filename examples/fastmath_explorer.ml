(* Compiler-flag exploration (§4.4): how --use_fast_math changes the
   exception behaviour of a kernel — subnormals vanish under FTZ, and in
   myocyte new division-by-zero exceptions appear exactly where
   subnormal gates were flushed to zero.

     dune exec examples/fastmath_explorer.exe [program] *)

module W = Fpx_workloads.Workload
module R = Fpx_harness.Runner
module Isa = Fpx_sass.Isa
module Exce = Fpx_tool.Exce

let summary (m : R.measurement) =
  String.concat ", "
    (List.map
       (fun (fmt, e, n) ->
         Printf.sprintf "%s %s x%d"
           (Isa.fp_format_to_string fmt)
           (Exce.to_string e) n)
       m.R.counts)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "myocyte" in
  let w = Fpx_workloads.Catalog.find name in
  let tool = R.Detector Gpu_fpx.Detector.default_config in
  let precise = R.run ~mode:Fpx_klang.Mode.precise ~tool w in
  let fast = R.run ~mode:Fpx_klang.Mode.fast_math ~tool w in
  Printf.printf "program: %s\n\n" name;
  Printf.printf "default compilation:   %s\n" (summary precise);
  Printf.printf "--use_fast_math:       %s\n\n" (summary fast);
  let delta fmt e =
    R.count fast ~fmt ~exce:e - R.count precise ~fmt ~exce:e
  in
  List.iter
    (fun fmt ->
      List.iter
        (fun e ->
          let d = delta fmt e in
          if d <> 0 then
            Printf.printf "  %s %s: %+d location(s)\n"
              (Isa.fp_format_to_string fmt)
              (Exce.to_string e) d)
        Exce.all)
    [ Isa.FP64; Isa.FP32 ];
  print_newline ();
  if delta Isa.FP32 Exce.Sub < 0 then
    print_endline
      "FTZ flushed the subnormal results to zero (NVIDIA doc item 1).";
  if delta Isa.FP32 Exce.Div0 > 0 then
    print_endline
      "New DIV0s: gates that were subnormal now reach MUFU.RCP as exact\n\
       zeros — the paper's myocyte observation (div-by-0 raised right\n\
       where subnormals disappeared).";
  (* Show the Turing/Ampere difference too (§2.2: the division algorithm
     expands differently and generates different exception counts). *)
  let ampere =
    R.run
      ~mode:(Fpx_klang.Mode.with_arch Fpx_klang.Mode.Ampere Fpx_klang.Mode.precise)
      ~tool w
  in
  Printf.printf "\nTuring vs Ampere (default compilation):\n";
  Printf.printf "  Turing: %d unique records\n" precise.R.total_exceptions;
  Printf.printf "  Ampere: %d unique records\n" ampere.R.total_exceptions
