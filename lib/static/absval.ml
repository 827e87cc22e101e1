module Kind = Fpx_num.Kind
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module Sfu = Fpx_num.Sfu

type cls = int

let m_zero = 1
let m_sub = 2
let m_normal = 4
let m_inf = 8
let m_nan = 16
let m_none = 0
let m_all = 31
let m_finite = m_zero lor m_sub lor m_normal
let m_exce = m_nan lor m_inf lor m_sub
let m_div0 = m_nan lor m_inf

let cls_of_kind = function
  | Kind.Zero -> m_zero
  | Kind.Subnormal -> m_sub
  | Kind.Normal -> m_normal
  | Kind.Inf -> m_inf
  | Kind.Nan -> m_nan

let cls_to_string c =
  if c = m_none then "{}"
  else if c = m_all then "⊤"
  else
    let names =
      List.filter_map
        (fun (m, s) -> if c land m <> 0 then Some s else None)
        [ (m_zero, "Zero"); (m_sub, "Sub"); (m_normal, "Normal");
          (m_inf, "Inf"); (m_nan, "NaN") ]
    in
    "{" ^ String.concat "," names ^ "}"

let may m x = x land m <> 0

type width = W32 | W64

let max_fin = function
  | W32 -> Fp32.to_float Fp32.max_finite
  | W64 -> Fp64.max_finite

let min_norm = function
  | W32 -> Fp32.to_float Fp32.min_normal
  | W64 -> Fp64.min_normal

let min_sub = function
  | W32 -> Fp32.to_float Fp32.min_subnormal
  | W64 -> Fp64.min_subnormal

(* Directed slack on bound arithmetic: the bounds are computed in
   binary64 while the modelled ops round to binary32 (or fuse), so give
   every derived bound a relative margin far wider than one ulp. *)
let up x = if Float.is_nan x then infinity else x *. 1.000001
let dn x = if Float.is_nan x then 0. else x *. 0.999999

type t = {
  cls : cls;
  lo : float;
  hi : float;
  int_valued : bool;
  const32 : int32 option;
  const64 : float option;
}

let bot =
  { cls = m_none; lo = infinity; hi = 0.; int_valued = true; const32 = None;
    const64 = None }

let is_bot x = x.cls = m_none

(* Smart constructor: clamp the magnitude bounds to what the classes
   admit, and keep the record's invariants (a set containing a
   subnormal contains a non-integer; NaN-free bounds). *)
let make w ?(int_valued = false) ?(lo = 0.) ?(hi = infinity) cls =
  if cls = m_none then bot
  else
    let lo = if Float.is_nan lo then 0. else Float.max lo 0. in
    let hi = if Float.is_nan hi then infinity else hi in
    (* below the normal threshold the rounding error of the modelled op
       is absolute (half an ulp of the smallest binade), which the
       relative up/dn slack cannot cover: pad by one quantum each way *)
    let lo =
      if lo > 0. && lo < min_norm w then
        Float.max (min_sub w) (lo -. min_sub w)
      else lo
    in
    let hi = if hi > 0. && hi < min_norm w then hi +. min_sub w else hi in
    let has_nz = cls land (m_sub lor m_normal) <> 0 in
    let lo, hi = if has_nz then (lo, hi) else (infinity, 0.) in
    let lo =
      if has_nz then
        Float.max lo
          (if cls land m_sub = 0 then min_norm w else min_sub w)
      else lo
    in
    let hi =
      if has_nz then
        Float.min hi (if cls land m_normal = 0 then min_norm w else max_fin w)
      else hi
    in
    {
      cls;
      lo;
      hi;
      int_valued = int_valued && cls land m_sub = 0;
      const32 = None;
      const64 = None;
    }

let top = make W32 m_all

let of_const32 b =
  let f = Fp32.to_float b in
  let k = Fp32.classify b in
  let fin_nz = match k with Kind.Subnormal | Kind.Normal -> true | _ -> false in
  {
    cls = cls_of_kind k;
    lo = (if fin_nz then Float.abs f else infinity);
    hi = (if fin_nz then Float.abs f else 0.);
    int_valued = (match k with
      | Kind.Zero -> true
      | Kind.Subnormal | Kind.Normal -> Float.is_integer f
      | Kind.Inf | Kind.Nan -> true);
    const32 = Some b;
    const64 = None;
  }

let of_const64 v =
  let k = Fp64.classify v in
  let fin_nz = match k with Kind.Subnormal | Kind.Normal -> true | _ -> false in
  {
    cls = cls_of_kind k;
    lo = (if fin_nz then Float.abs v else infinity);
    hi = (if fin_nz then Float.abs v else 0.);
    int_valued = (match k with
      | Kind.Zero -> true
      | Kind.Subnormal | Kind.Normal -> Float.is_integer v
      | Kind.Inf | Kind.Nan -> true);
    const32 = None;
    const64 = Some v;
  }

let of_cls w c = make w c

let join a b =
  if is_bot a then b
  else if is_bot b then a
  else
    let const32 =
      match (a.const32, b.const32) with
      | Some x, Some y when Int32.equal x y -> Some x
      | _ -> None
    in
    let const64 =
      match (a.const64, b.const64) with
      | Some x, Some y
        when Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) ->
        Some x
      | _ -> None
    in
    {
      cls = a.cls lor b.cls;
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
      int_valued = a.int_valued && b.int_valued;
      const32;
      const64;
    }

let widen old nw =
  if is_bot old then nw
  else if is_bot nw then old
  else
    let j = join old nw in
    {
      j with
      lo = (if j.lo < old.lo then 0. else old.lo);
      hi = (if j.hi > old.hi then infinity else old.hi);
    }

let equal a b =
  a.cls = b.cls
  && Int64.equal (Int64.bits_of_float a.lo) (Int64.bits_of_float b.lo)
  && Int64.equal (Int64.bits_of_float a.hi) (Int64.bits_of_float b.hi)
  && a.int_valued = b.int_valued
  && (match (a.const32, b.const32) with
     | Some x, Some y -> Int32.equal x y
     | None, None -> true
     | _ -> false)
  && (match (a.const64, b.const64) with
     | Some x, Some y ->
       Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
     | None, None -> true
     | _ -> false)

let to_string x =
  if is_bot x then "⊥"
  else
    let base = cls_to_string x.cls in
    let bounds =
      if x.cls land (m_sub lor m_normal) <> 0 && x.hi < infinity then
        Printf.sprintf " |v|∈[%g,%g]" x.lo x.hi
      else ""
    in
    let const =
      match (x.const32, x.const64) with
      | Some b, _ -> Printf.sprintf " =%s" (Fp32.to_string b)
      | _, Some v -> Printf.sprintf " =%.17g" v
      | None, None -> ""
    in
    let iv = if x.int_valued && x.cls land m_finite <> 0 then " int" else "" in
    base ^ bounds ^ const ^ iv

(* --- modifiers and flushes ------------------------------------------- *)

let flush32 x =
  if is_bot x || x.cls land m_sub = 0 then x
  else
    let r =
      make W32 ~int_valued:x.int_valued
        ~lo:(Float.max x.lo (min_norm W32))
        ~hi:x.hi
        ((x.cls land lnot m_sub) lor m_zero)
    in
    { r with const32 = Option.map Fp32.ftz x.const32 }

let abs_mod w x =
  if is_bot x then x
  else
    match w with
    | W32 -> { x with const32 = Option.map Fp32.abs x.const32; const64 = None }
    | W64 -> { x with const64 = Option.map Fp64.abs x.const64; const32 = None }

let neg_mod w x =
  if is_bot x then x
  else
    match w with
    | W32 -> { x with const32 = Option.map Fp32.neg x.const32; const64 = None }
    | W64 -> { x with const64 = Option.map Fp64.neg x.const64; const32 = None }

(* --- transfer-function plumbing -------------------------------------- *)

let post w ~ftz r = if ftz && w = W32 then flush32 r else r

let consts2 w a b =
  match w with
  | W32 -> (
    match (a.const32, b.const32) with
    | Some x, Some y -> Some (`C32 (x, y))
    | _ -> None)
  | W64 -> (
    match (a.const64, b.const64) with
    | Some x, Some y -> Some (`C64 (x, y))
    | _ -> None)

let has_nz x = x.cls land (m_sub lor m_normal) <> 0
let has_fin x = x.cls land m_finite <> 0

(* Strip constants when an exact-identity shortcut is taken past an
   operand whose sign the class domain cannot see (±0 arithmetic). *)
let blur x =
  if x.const32 = None && x.const64 = None then x
  else { x with const32 = None; const64 = None }

let add w ~ftz a b =
  if is_bot a || is_bot b then bot
  else
    match consts2 w a b with
    | Some (`C32 (x, y)) -> post w ~ftz (of_const32 (Fp32.add x y))
    | Some (`C64 (x, y)) -> of_const64 (Fp64.add x y)
    | None ->
      (* 0 + x = x exactly, up to the sign of zero *)
      if a.cls = m_zero then post w ~ftz (blur b)
      else if b.cls = m_zero then post w ~ftz (blur a)
      else begin
        let cls = ref m_none in
        let add_c m = cls := !cls lor m in
        if may m_nan a.cls || may m_nan b.cls then add_c m_nan;
        if may m_inf a.cls && may m_inf b.cls then add_c m_nan;
        if may m_inf a.cls || may m_inf b.cls then add_c m_inf;
        let int' = a.int_valued && b.int_valued in
        let lo = ref infinity and hi = ref 0. in
        if has_fin a && has_fin b then begin
          let nza = has_nz a and nzb = has_nz b in
          let hi' = up (a.hi +. b.hi) in
          if (may m_zero a.cls && may m_zero b.cls) || (nza && nzb) then
            add_c m_zero;
          if
            (may m_sub a.cls && may m_zero b.cls)
            || (may m_zero a.cls && may m_sub b.cls)
            || (nza && nzb && not int')
          then add_c m_sub;
          if (nza || nzb) && hi' >= dn (min_norm w) then add_c m_normal;
          if nza && nzb && hi' >= dn (max_fin w) then add_c m_inf;
          hi := hi';
          lo := (if int' then 1. else 0.)
        end;
        post w ~ftz (make w ~int_valued:int' ~lo:!lo ~hi:!hi !cls)
      end

let mul w ~ftz a b =
  if is_bot a || is_bot b then bot
  else
    match consts2 w a b with
    | Some (`C32 (x, y)) -> post w ~ftz (of_const32 (Fp32.mul x y))
    | Some (`C64 (x, y)) -> of_const64 (Fp64.mul x y)
    | None ->
      let cls = ref m_none in
      let add_c m = cls := !cls lor m in
      if may m_nan a.cls || may m_nan b.cls then add_c m_nan;
      if
        (may m_inf a.cls && may m_zero b.cls)
        || (may m_zero a.cls && may m_inf b.cls)
      then add_c m_nan;
      let nza = has_nz a and nzb = has_nz b in
      if may m_inf a.cls && (nzb || may m_inf b.cls) then add_c m_inf;
      if may m_inf b.cls && (nza || may m_inf a.cls) then add_c m_inf;
      let int' = a.int_valued && b.int_valued in
      let lo = ref infinity and hi = ref 0. in
      if
        (may m_zero a.cls && has_fin b) || (has_fin a && may m_zero b.cls)
      then add_c m_zero;
      if nza && nzb then begin
        let plo = dn (a.lo *. b.lo) and phi = up (a.hi *. b.hi) in
        if phi >= dn (max_fin w) then add_c m_inf;
        if (not int') && plo < min_norm w then begin
          add_c m_sub;
          if plo < min_sub w then add_c m_zero
        end;
        if phi >= dn (min_norm w) && plo <= up (max_fin w) then add_c m_normal;
        lo := plo;
        hi := phi
      end;
      post w ~ftz (make w ~int_valued:int' ~lo:!lo ~hi:!hi !cls)

let fma w ~ftz a b c =
  if is_bot a || is_bot b || is_bot c then bot
  else
    let folded =
      match w with
      | W32 -> (
        match (a.const32, b.const32, c.const32) with
        | Some x, Some y, Some z ->
          Some (post w ~ftz (of_const32 (Fp32.fma x y z)))
        | _ -> None)
      | W64 -> (
        match (a.const64, b.const64, c.const64) with
        | Some x, Some y, Some z -> Some (of_const64 (Fp64.fma x y z))
        | _ -> None)
    in
    match folded with
    | Some r -> r
    | None ->
      (* The product is exact inside an FMA; composing the rounded
         abstract [mul] with [add] stays sound because [mul] only ever
         adds classes relative to the exact product, and the magnitude
         bounds carry the unrounded range. *)
      add w ~ftz (mul w ~ftz:false a b) c

let minmax_nv ~ftz ?is_min a b =
  if is_bot a || is_bot b then bot
  else
    let folded =
      match (is_min, a.const32, b.const32) with
      | Some m, Some x, Some y ->
        Some
          (post W32 ~ftz
             (of_const32 (if m then Fp32.min_nv x y else Fp32.max_nv x y)))
      | _ -> None
    in
    match folded with
    | Some r -> r
    | None ->
      let non_nan = (a.cls lor b.cls) land lnot m_nan in
      let cls =
        non_nan lor (if may m_nan a.cls && may m_nan b.cls then m_nan else 0)
      in
      post W32 ~ftz
        (make W32
           ~int_valued:(a.int_valued && b.int_valued)
           ~lo:(Float.min a.lo b.lo) ~hi:(Float.max a.hi b.hi) cls)

let fset_result =
  make W32 ~int_valued:true ~lo:1. ~hi:1. (m_zero lor m_normal)

let select a b = join a b

(* --- MUFU ------------------------------------------------------------ *)

(* All SFU outputs are flushed (no subnormal results); sub-normal-range
   outputs land on zero. The sign of inputs is not tracked, so rsq,
   sqrt and lg2 must assume a NaN from negative inputs. *)
let mufu op x =
  if is_bot x then bot
  else
    match (op : Fpx_sass.Isa.mufu_op) with
    | Fpx_sass.Isa.Rcp64h | Fpx_sass.Isa.Rsq64h ->
      invalid_arg "Absval.mufu: use mufu64h for the 64H variants"
    | _ -> (
      match x.const32 with
      | Some b -> of_const32 (Fpx_sass.Isa.eval_mufu op b)
      | None ->
        let cls = ref m_none in
        let add_c m = cls := !cls lor m in
        let lo = ref infinity and hi = ref 0. in
        let nz = has_nz x in
        (* effective magnitude range of the non-zero finite inputs *)
        let xlo = Float.max x.lo (min_sub W32)
        and xhi = Float.min x.hi (max_fin W32) in
        let range rl rh =
          (* classify an output magnitude interval, post-flush *)
          if rh >= dn (max_fin W32) then add_c m_inf;
          if rl < min_norm W32 then add_c m_zero;
          if rh >= dn (min_norm W32) && rl <= up (max_fin W32) then begin
            add_c m_normal;
            lo := Float.min !lo (Float.max (dn rl) (min_norm W32));
            hi := Float.max !hi (Float.min (up rh) (max_fin W32))
          end
        in
        (match op with
        | Fpx_sass.Isa.Rcp ->
          if may m_nan x.cls then add_c m_nan;
          if may m_zero x.cls then add_c m_inf;
          if may m_inf x.cls then add_c m_zero;
          if nz then range (dn (1. /. xhi)) (up (1. /. xlo))
        | Fpx_sass.Isa.Rsq ->
          if may m_nan x.cls then add_c m_nan;
          if may m_zero x.cls then add_c m_inf;
          if may m_inf x.cls then begin add_c m_zero; add_c m_nan end;
          if nz then begin
            add_c m_nan;  (* negative inputs *)
            range (dn (1. /. Float.sqrt xhi)) (up (1. /. Float.sqrt xlo))
          end
        | Fpx_sass.Isa.Sqrt ->
          if may m_nan x.cls then add_c m_nan;
          if may m_zero x.cls then add_c m_zero;
          if may m_inf x.cls then begin add_c m_inf; add_c m_nan end;
          if nz then begin
            add_c m_nan;
            range (dn (Float.sqrt xlo)) (up (Float.sqrt xhi))
          end
        | Fpx_sass.Isa.Ex2 ->
          if may m_nan x.cls then add_c m_nan;
          if may m_inf x.cls then begin add_c m_inf; add_c m_zero end;
          if has_fin x then
            (* inputs lie in [-x.hi, x.hi] *)
            range (dn (Float.exp2 (-.x.hi))) (up (Float.exp2 x.hi))
        | Fpx_sass.Isa.Lg2 ->
          if may m_nan x.cls then add_c m_nan;
          if may m_zero x.cls then add_c m_inf;  (* log2 0 = -∞ *)
          if may m_inf x.cls then begin add_c m_inf; add_c m_nan end;
          if nz then begin
            add_c m_nan;  (* negative inputs *)
            add_c m_zero;  (* log2 1 = 0 *)
            let m =
              Float.max (Float.abs (Float.log2 xlo))
                (Float.abs (Float.log2 xhi))
            in
            range 0. (up m)
          end
        | Fpx_sass.Isa.Sin | Fpx_sass.Isa.Cos ->
          if may m_nan x.cls || may m_inf x.cls then add_c m_nan;
          if has_fin x then begin add_c m_zero; range 0. 1. end
        | Fpx_sass.Isa.Rcp64h | Fpx_sass.Isa.Rsq64h -> assert false);
        make W32 ~lo:!lo ~hi:!hi !cls)

let mufu64h op x =
  if not (Fpx_sass.Isa.mufu_is_64h op) then
    invalid_arg "Absval.mufu64h: not a 64H op";
  match x.const32 with
  | Some b ->
    let hi = Fpx_sass.Isa.eval_mufu op b in
    let pair_cls =
      match Fp64.classify_hi hi with
      | Kind.Nan -> m_nan
      | Kind.Inf -> m_inf lor m_nan  (* low word could make it a NaN *)
      | Kind.Normal -> m_normal
      | Kind.Zero | Kind.Subnormal -> m_zero lor m_sub
    in
    (of_const32 hi, make W64 pair_cls)
  | None -> (top, make W64 m_all)

(* --- conversions ----------------------------------------------------- *)

let i2f_result w x =
  match x.const32 with
  | Some v -> (
    match w with
    | W32 -> of_const32 (Fp32.of_float (Int32.to_float v))
    | W64 -> of_const64 (Int32.to_float v))
  | None ->
    make w ~int_valued:true ~lo:1. ~hi:2147483648. (m_zero lor m_normal)

let f2f_narrow ~ftz x =
  if is_bot x then bot
  else
    match x.const64 with
    | Some v -> post W32 ~ftz (of_const32 (Fp32.of_float v))
    | None ->
      let cls = ref m_none in
      let add_c m = cls := !cls lor m in
      if may m_nan x.cls then add_c m_nan;
      if may m_inf x.cls then add_c m_inf;
      if may m_zero x.cls then add_c m_zero;
      if may m_sub x.cls then add_c m_zero;  (* f64 sub < f32 min sub / 2 *)
      let lo = ref infinity and hi = ref 0. in
      if has_nz x then begin
        if up x.hi >= dn (max_fin W32) then add_c m_inf;
        if dn x.lo < min_norm W32 then begin add_c m_sub; add_c m_zero end;
        if up x.hi >= dn (min_norm W32) && dn x.lo <= up (max_fin W32) then
          add_c m_normal;
        lo := dn x.lo;
        hi := up x.hi
      end;
      post W32 ~ftz (make W32 ~int_valued:x.int_valued ~lo:!lo ~hi:!hi !cls)

let f2f_widen x =
  if is_bot x then bot
  else
    match x.const32 with
    | Some b -> of_const64 (Fp32.to_float b)
    | None ->
      let cls = ref m_none in
      if may m_nan x.cls then cls := !cls lor m_nan;
      if may m_inf x.cls then cls := !cls lor m_inf;
      if may m_zero x.cls then cls := !cls lor m_zero;
      if may (m_sub lor m_normal) x.cls then cls := !cls lor m_normal;
      make W64 ~int_valued:x.int_valued ~lo:x.lo ~hi:x.hi !cls
