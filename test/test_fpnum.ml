(* Unit and property tests for the bit-level FP library. *)

open Fpx_num

(* deterministic property tests: fixed QCheck seed *)
let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t


let check_kind = Alcotest.testable Kind.pp Kind.equal

(* --- Fp32 classification --------------------------------------------- *)

let test_classify_specials () =
  Alcotest.check check_kind "inf" Kind.Inf (Fp32.classify Fp32.pos_inf);
  Alcotest.check check_kind "-inf" Kind.Inf (Fp32.classify Fp32.neg_inf);
  Alcotest.check check_kind "nan" Kind.Nan (Fp32.classify Fp32.qnan);
  Alcotest.check check_kind "zero" Kind.Zero (Fp32.classify Fp32.zero);
  Alcotest.check check_kind "-zero" Kind.Zero (Fp32.classify Fp32.neg_zero);
  Alcotest.check check_kind "one" Kind.Normal (Fp32.classify Fp32.one);
  Alcotest.check check_kind "min sub" Kind.Subnormal
    (Fp32.classify Fp32.min_subnormal);
  Alcotest.check check_kind "min normal" Kind.Normal
    (Fp32.classify Fp32.min_normal);
  Alcotest.check check_kind "max finite" Kind.Normal
    (Fp32.classify Fp32.max_finite)

let test_classify_boundaries () =
  (* largest subnormal = min_normal - 1 ulp *)
  let largest_sub = Int32.sub Fp32.min_normal 1l in
  Alcotest.check check_kind "largest subnormal" Kind.Subnormal
    (Fp32.classify largest_sub);
  (* smallest NaN payload *)
  Alcotest.check check_kind "signalling-ish nan" Kind.Nan
    (Fp32.classify 0x7f800001l);
  Alcotest.check check_kind "negative nan" Kind.Nan (Fp32.classify 0xffc00000l);
  Alcotest.check check_kind "negative subnormal" Kind.Subnormal
    (Fp32.classify 0x80000001l)

let test_fp32_arith () =
  let f = Fp32.of_float in
  Alcotest.(check bool) "1+2=3" true
    (Fp32.equal_bits (Fp32.add (f 1.0) (f 2.0)) (f 3.0));
  Alcotest.(check bool) "inf-inf=nan" true
    (Fp32.is_nan (Fp32.sub Fp32.pos_inf Fp32.pos_inf));
  Alcotest.(check bool) "0*inf=nan" true
    (Fp32.is_nan (Fp32.mul Fp32.zero Fp32.pos_inf));
  Alcotest.(check bool) "x/0=inf" true
    (Fp32.is_inf (Fp32.div (f 1.0) Fp32.zero));
  Alcotest.(check bool) "0/0=nan" true
    (Fp32.is_nan (Fp32.div Fp32.zero Fp32.zero));
  Alcotest.(check bool) "overflow=inf" true
    (Fp32.is_inf (Fp32.mul Fp32.max_finite (f 2.0)));
  Alcotest.(check bool) "underflow=sub" true
    (Fp32.is_subnormal (Fp32.mul (f 1e-20) (f 1e-20)));
  Alcotest.(check bool) "sqrt(-1)=nan" true (Fp32.is_nan (Fp32.sqrt (f (-1.0))))

let test_fp32_rounding () =
  (* 2^24 + 1 is not representable in binary32: rounds to 2^24. *)
  let big = Fp32.of_float 16777216.0 in
  Alcotest.(check bool) "2^24+1 rounds" true
    (Fp32.equal_bits (Fp32.add big Fp32.one) big);
  (* but 2^24 + 2 is representable *)
  Alcotest.(check bool) "2^24+2 exact" true
    (Fp32.equal_bits
       (Fp32.add big (Fp32.of_float 2.0))
       (Fp32.of_float 16777218.0))

let test_min_max_nv () =
  let f = Fp32.of_float in
  (* IEEE-2008 semantics: a single NaN operand does not propagate. *)
  Alcotest.(check bool) "min(nan,2)=2" true
    (Fp32.equal_bits (Fp32.min_nv Fp32.qnan (f 2.0)) (f 2.0));
  Alcotest.(check bool) "max(2,nan)=2" true
    (Fp32.equal_bits (Fp32.max_nv (f 2.0) Fp32.qnan) (f 2.0));
  Alcotest.(check bool) "min(nan,nan)=nan" true
    (Fp32.is_nan (Fp32.min_nv Fp32.qnan Fp32.qnan));
  Alcotest.(check bool) "min(1,2)=1" true
    (Fp32.equal_bits (Fp32.min_nv (f 1.0) (f 2.0)) (f 1.0))

let test_ftz () =
  Alcotest.(check bool) "sub flushes" true
    (Fp32.is_zero (Fp32.ftz Fp32.min_subnormal));
  Alcotest.(check bool) "neg sub flushes to -0" true
    (Fp32.equal_bits (Fp32.ftz 0x80000001l) Fp32.neg_zero);
  Alcotest.(check bool) "normal unchanged" true
    (Fp32.equal_bits (Fp32.ftz Fp32.one) Fp32.one);
  Alcotest.(check bool) "nan unchanged" true (Fp32.is_nan (Fp32.ftz Fp32.qnan))

let test_compare_ieee () =
  let f = Fp32.of_float in
  Alcotest.(check bool) "nan unordered" true
    (Fp32.compare_ieee Fp32.qnan (f 1.0) = None);
  Alcotest.(check bool) "1<2" true (Fp32.compare_ieee (f 1.0) (f 2.0) = Some (-1));
  Alcotest.(check bool) "-0 = +0" true
    (Fp32.compare_ieee Fp32.neg_zero Fp32.zero = Some 0)

(* --- Fp64 words -------------------------------------------------------- *)

let test_fp64_words_roundtrip () =
  List.iter
    (fun x ->
      let lo, hi = Fp64.to_words x in
      let back = Fp64.of_words ~lo ~hi in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %h" x)
        true
        (Int64.bits_of_float back = Int64.bits_of_float x))
    [ 0.0; -0.0; 1.0; -1.5; infinity; neg_infinity; 1e-310; Float.max_float ]

let test_fp64_classify_hi () =
  Alcotest.check check_kind "inf hi" Kind.Inf (Fp64.classify_hi (Fp64.hi_word infinity));
  Alcotest.check check_kind "nan hi" Kind.Nan (Fp64.classify_hi (Fp64.hi_word Float.nan));
  Alcotest.check check_kind "normal hi" Kind.Normal (Fp64.classify_hi (Fp64.hi_word 1.5));
  (* a subnormal with non-zero high mantissa bits *)
  Alcotest.check check_kind "sub hi" Kind.Subnormal
    (Fp64.classify_hi (Fp64.hi_word 1e-310))

let test_fp64_classify () =
  Alcotest.check check_kind "f64 sub" Kind.Subnormal (Fp64.classify 1e-310);
  Alcotest.check check_kind "f64 min sub" Kind.Subnormal
    (Fp64.classify Fp64.min_subnormal);
  Alcotest.check check_kind "f64 normal" Kind.Normal
    (Fp64.classify Fp64.min_normal);
  Alcotest.check check_kind "f64 inf" Kind.Inf (Fp64.classify infinity);
  Alcotest.check check_kind "f64 zero" Kind.Zero (Fp64.classify (-0.0))

(* --- SFU --------------------------------------------------------------- *)

let test_sfu_specials () =
  Alcotest.(check bool) "rcp(0)=inf" true (Fp32.is_inf (Sfu.rcp Fp32.zero));
  Alcotest.(check bool) "rcp(-0)=-inf" true
    (Fp32.is_inf (Sfu.rcp Fp32.neg_zero) && Fp32.sign_bit (Sfu.rcp Fp32.neg_zero));
  Alcotest.(check bool) "rcp(inf)=0" true (Fp32.is_zero (Sfu.rcp Fp32.pos_inf));
  Alcotest.(check bool) "rcp(nan)=nan" true (Fp32.is_nan (Sfu.rcp Fp32.qnan));
  Alcotest.(check bool) "rsq(-1)=nan" true
    (Fp32.is_nan (Sfu.rsq (Fp32.of_float (-1.0))));
  Alcotest.(check bool) "rsq(0)=inf" true (Fp32.is_inf (Sfu.rsq Fp32.zero));
  Alcotest.(check bool) "lg2(0)=-inf" true (Fp32.is_inf (Sfu.lg2 Fp32.zero));
  Alcotest.(check bool) "lg2(-1)=nan" true
    (Fp32.is_nan (Sfu.lg2 (Fp32.of_float (-1.0))));
  Alcotest.(check bool) "ex2(big)=inf" true
    (Fp32.is_inf (Sfu.ex2 (Fp32.of_float 1000.0)));
  Alcotest.(check bool) "sin(inf)=nan" true (Fp32.is_nan (Sfu.sin Fp32.pos_inf))

let test_sfu_accuracy () =
  (* approximate but within a few ulps of the true value *)
  let x = Fp32.of_float 3.0 in
  let approx = Fp32.to_float (Sfu.rcp x) in
  Alcotest.(check bool) "rcp(3) close" true
    (Float.abs (approx -. (1.0 /. 3.0)) < 1e-6);
  (* subnormal input is NOT flushed (precise-mode semantics) *)
  let sub_in = Fp32.of_float 5e-39 in
  Alcotest.(check bool) "rcp(large sub) finite" true
    (Fp32.classify (Sfu.rcp sub_in) = Kind.Normal)

let test_sfu_output_ftz () =
  (* outputs in the subnormal range flush to zero *)
  let huge = Fp32.of_float 3e38 in
  Alcotest.(check bool) "rcp(3e38) tiny or flushed" true
    (let r = Sfu.rcp huge in
     Fp32.is_zero r || Fp32.classify r = Kind.Normal)

let test_rcp64h () =
  let hi = Fp64.hi_word 2.0 in
  let r_hi = Sfu.rcp64h hi in
  let approx = Fp64.of_words ~lo:0l ~hi:r_hi in
  Alcotest.(check bool) "rcp64h(2)~0.5" true (Float.abs (approx -. 0.5) < 1e-6);
  (* full double exponent range survives (no FP32 clamping) *)
  let tiny_hi = Fp64.hi_word 1e-180 in
  let big = Fp64.of_words ~lo:0l ~hi:(Sfu.rcp64h tiny_hi) in
  Alcotest.(check bool) "rcp64h(1e-180) ~ 1e180" true
    (big > 0.9e180 && big < 1.1e180);
  Alcotest.(check bool) "rcp64h(0)=inf-hi" true
    (Fp64.classify_hi (Sfu.rcp64h (Fp64.hi_word 0.0)) = Kind.Inf)

(* --- Properties -------------------------------------------------------- *)

(* Note: a binary32 subnormal widens to a *normal* double, so the
   reference classification is by value range, not Float.classify. *)
let prop_classify_matches_float =
  QCheck.Test.make ~count:2000 ~name:"fp32 classify agrees with value range"
    QCheck.int32 (fun bits ->
      let v = Fp32.to_float bits in
      let expected =
        if Float.is_nan v then Kind.Nan
        else if Float.abs v = Float.infinity then Kind.Inf
        else if v = 0.0 then Kind.Zero
        else if Float.abs v < Fp32.to_float Fp32.min_normal then Kind.Subnormal
        else Kind.Normal
      in
      Kind.equal (Fp32.classify bits) expected)

let prop_neg_involutive =
  QCheck.Test.make ~count:1000 ~name:"fp32 neg involutive" QCheck.int32
    (fun bits -> Fp32.equal_bits (Fp32.neg (Fp32.neg bits)) bits)

let prop_abs_clears_sign =
  QCheck.Test.make ~count:1000 ~name:"fp32 abs clears sign" QCheck.int32
    (fun bits -> not (Fp32.sign_bit (Fp32.abs bits)))

let prop_words_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"fp64 words roundtrip"
    QCheck.(pair int32 int32)
    (fun (lo, hi) ->
      let x = Fp64.of_words ~lo ~hi in
      let lo', hi' = Fp64.to_words x in
      lo = lo' && hi = hi')

let prop_ftz_idempotent =
  QCheck.Test.make ~count:1000 ~name:"ftz idempotent" QCheck.int32 (fun bits ->
      Fp32.equal_bits (Fp32.ftz (Fp32.ftz bits)) (Fp32.ftz bits))

let prop_add_commutes =
  QCheck.Test.make ~count:1000 ~name:"fp32 add commutes (non-nan)"
    QCheck.(pair (float_range (-1e30) 1e30) (float_range (-1e30) 1e30))
    (fun (a, b) ->
      let fa = Fp32.of_float a and fb = Fp32.of_float b in
      Fp32.equal_bits (Fp32.add fa fb) (Fp32.add fb fa))

let prop_min_nv_never_nan_unless_both =
  QCheck.Test.make ~count:1000 ~name:"FMNMX result nan only if both nan"
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let r = Fp32.min_nv a b in
      if Fp32.is_nan r then Fp32.is_nan a && Fp32.is_nan b else true)

(* The word rules the executor and the reference core share, pinned
   with their expected bits written out: a fault in one of them cannot
   show up as an executor/oracle disagreement. *)
let test_word_rules_table () =
  let bits = Alcotest.testable (fun ppf w -> Format.fprintf ppf "0x%08x" w) ( = ) in
  let check2 name f cases =
    List.iter
      (fun (a, b, want) ->
        Alcotest.check bits (Printf.sprintf "%s 0x%08x 0x%08x" name a b) want
          (f a b))
      cases
  in
  let qnan = 0x7fc00000 and neg_nan = 0xffc00001 and two = 0x40000000 in
  let pos0 = 0x00000000 and neg0 = 0x80000000 in
  check2 "min_nv" Fp32.min_nv_word
    [ (qnan, two, two); (two, qnan, two); (qnan, neg_nan, neg_nan);
      (pos0, neg0, pos0); (neg0, pos0, neg0);
      (0x3f800000, two, 0x3f800000); (0xbf800000, 0x3f800000, 0xbf800000) ];
  check2 "max_nv" Fp32.max_nv_word
    [ (qnan, two, two); (two, qnan, two); (qnan, neg_nan, neg_nan);
      (pos0, neg0, pos0); (neg0, pos0, neg0);
      (0x3f800000, two, two); (0xbf800000, 0x3f800000, 0x3f800000) ];
  List.iter
    (fun (w, want) ->
      Alcotest.check bits (Printf.sprintf "ftz 0x%08x" w) want (Fp32.ftz_word w))
    [ (0x00000001, 0x00000000); (0x807fffff, 0x80000000);
      (0x80000001, 0x80000000); (0x00800000, 0x00800000);
      (0x3f800000, 0x3f800000); (0xc0490fdb, 0xc0490fdb);
      (0x7fc00000, 0x7fc00000); (0x80000000, 0x80000000) ];
  List.iter
    (fun (w, want) ->
      Alcotest.(check bool) (Printf.sprintf "is_nan 0x%08x" w) want
        (Fp32.is_nan (Int32.of_int w)))
    [ (0x7f800000, false); (0x7f800001, true); (0xff800001, true);
      (0xffffffff, true); (0xff800000, false); (0x7f7fffff, false) ];
  (* modifiers apply in the order flush, abs, neg *)
  List.iter
    (fun (w, (neg, abs, ftz), want) ->
      Alcotest.check bits (Printf.sprintf "mod 0x%08x" w) want
        (Fp32.mod_word w ~neg ~abs ~ftz))
    [ (0x80000001, (true, false, true), 0x00000000);
      (0x80000001, (true, true, false), 0x80000001);
      (0x80000001, (false, true, true), 0x00000000);
      (0xbf800000, (false, true, false), 0x3f800000);
      (0x3f800000, (true, false, false), 0xbf800000);
      (0x3f800000, (false, false, true), 0x3f800000) ];
  (* the [t] functions are the word rules *)
  Alcotest.(check int32) "min_nv on int32" 0x80000000l
    (Fp32.min_nv 0x80000000l 0x00000000l);
  Alcotest.(check int32) "ftz on int32" 0x80000000l (Fp32.ftz 0x807fffffl)

let suite =
  ( "fpnum",
    [ Alcotest.test_case "classify specials" `Quick test_classify_specials;
      Alcotest.test_case "classify boundaries" `Quick test_classify_boundaries;
      Alcotest.test_case "fp32 arithmetic" `Quick test_fp32_arith;
      Alcotest.test_case "fp32 rounding" `Quick test_fp32_rounding;
      Alcotest.test_case "FMNMX nan semantics" `Quick test_min_max_nv;
      Alcotest.test_case "ftz" `Quick test_ftz;
      Alcotest.test_case "ieee compare" `Quick test_compare_ieee;
      Alcotest.test_case "fp64 words roundtrip" `Quick test_fp64_words_roundtrip;
      Alcotest.test_case "fp64 classify_hi" `Quick test_fp64_classify_hi;
      Alcotest.test_case "fp64 classify" `Quick test_fp64_classify;
      Alcotest.test_case "sfu special cases" `Quick test_sfu_specials;
      Alcotest.test_case "sfu accuracy" `Quick test_sfu_accuracy;
      Alcotest.test_case "sfu output ftz" `Quick test_sfu_output_ftz;
      Alcotest.test_case "rcp64h" `Quick test_rcp64h;
      qcheck_case prop_classify_matches_float;
      qcheck_case prop_neg_involutive;
      qcheck_case prop_abs_clears_sign;
      qcheck_case prop_words_roundtrip;
      qcheck_case prop_ftz_idempotent;
      qcheck_case prop_add_commutes;
      qcheck_case prop_min_nv_never_nan_unless_both;
      Alcotest.test_case "word rules table" `Quick test_word_rules_table ] )
