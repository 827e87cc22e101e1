open Fpx_klang.Ast
open Fpx_klang.Dsl
module W = Workload

let lit ty x = match ty with F32 -> f32 x | F64 -> f64 x | I32 -> i32 (int_of_float x)

let guard_n body = [ let_ "i" I32 tid; if_ (v "i" <: v "n") body [] ]

let vec_binop name ty op =
  kernel name
    [ ("out", ptr ty); ("a", ptr ty); ("b", ptr ty); ("n", scalar I32) ]
    (guard_n
       [ store "out" (v "i") (Bin (op, load "a" (v "i"), load "b" (v "i"))) ])

let saxpy name ty =
  kernel name
    [ ("y", ptr ty); ("x", ptr ty); ("alpha", scalar ty); ("n", scalar I32) ]
    (guard_n
       [ store "y" (v "i")
           (fma (v "alpha") (load "x" (v "i")) (load "y" (v "i"))) ])

let triad name ty =
  kernel name
    [ ("out", ptr ty); ("a", ptr ty); ("b", ptr ty); ("s", scalar ty);
      ("n", scalar I32) ]
    (guard_n
       [ store "out" (v "i")
           (load "a" (v "i") +: (v "s" *: load "b" (v "i"))) ])

let copy name ty =
  kernel name [ ("out", ptr ty); ("a", ptr ty); ("n", scalar I32) ]
    (guard_n [ store "out" (v "i") (load "a" (v "i")) ])

let reduce_partial name ty =
  kernel name [ ("partial", ptr ty); ("a", ptr ty); ("n", scalar I32) ]
    [ let_ "i" I32 tid;
      let_ "stride" I32 (ntid_x *: nctaid_x);
      let_ "acc" ty (lit ty 0.0);
      let_ "k" I32 (v "i");
      while_ (v "k" <: v "n")
        [ set "acc" (v "acc" +: load "a" (v "k"));
          set "k" (v "k" +: v "stride") ];
      store "partial" (v "i") (v "acc") ]

let dot_partial name ty =
  kernel name
    [ ("partial", ptr ty); ("a", ptr ty); ("b", ptr ty); ("n", scalar I32) ]
    [ let_ "i" I32 tid;
      let_ "stride" I32 (ntid_x *: nctaid_x);
      let_ "acc" ty (lit ty 0.0);
      let_ "k" I32 (v "i");
      while_ (v "k" <: v "n")
        [ set "acc" (fma (load "a" (v "k")) (load "b" (v "k")) (v "acc"));
          set "k" (v "k" +: v "stride") ];
      store "partial" (v "i") (v "acc") ]

let scan_naive name =
  kernel name [ ("out", ptr F32); ("a", ptr F32); ("n", scalar I32) ]
    (guard_n
       [ let_ "acc" F32 (f32 0.0);
         for_ "k" (i32 0) (v "i" +: i32 1)
           [ set "acc" (v "acc" +: load "a" (v "k")) ];
         store "out" (v "i") (v "acc") ])

let gemm name ty n =
  kernel name [ ("c", ptr ty); ("a", ptr ty); ("b", ptr ty) ]
    [ let_ "t" I32 tid;
      if_ (v "t" <: i32 (n * n))
        [ let_ "acc" ty (lit ty 0.0);
          (* Decompose t into row/col; with no IDIV in the ISA, the
             row/remainder split is a small subtraction loop. *)
          let_ "r" I32 (i32 0);
          let_ "rem" I32 (v "t");
          while_ (v "rem" >=: i32 n)
            [ set "rem" (v "rem" -: i32 n); set "r" (v "r" +: i32 1) ];
          for_ "k" (i32 0) (i32 n)
            [ set "acc"
                (fma
                   (load "a" ((v "r" *: i32 n) +: v "k"))
                   (load "b" ((v "k" *: i32 n) +: v "rem"))
                   (v "acc")) ];
          store "c" (v "t") (v "acc") ]
        [] ]

let gemv name ty n =
  kernel name [ ("y", ptr ty); ("a", ptr ty); ("x", ptr ty) ]
    [ let_ "row" I32 tid;
      if_ (v "row" <: i32 n)
        [ let_ "acc" ty (lit ty 0.0);
          for_ "k" (i32 0) (i32 n)
            [ set "acc"
                (fma
                   (load "a" ((v "row" *: i32 n) +: v "k"))
                   (load "x" (v "k")) (v "acc")) ];
          store "y" (v "row") (v "acc") ]
        [] ]

let stencil3 name ty =
  kernel name [ ("out", ptr ty); ("a", ptr ty); ("n", scalar I32) ]
    [ let_ "i" I32 tid;
      if_ ((v "i" >: i32 0) &&: (v "i" <: (v "n" -: i32 1)))
        [ store "out" (v "i")
            (fma (lit ty 0.25)
               (load "a" (v "i" -: i32 1) +: load "a" (v "i" +: i32 1))
               (lit ty 0.5 *: load "a" (v "i"))) ]
        [] ]

let jacobi2d name n =
  kernel name [ ("out", ptr F32); ("a", ptr F32) ]
    [ let_ "t" I32 tid;
      if_ (v "t" <: i32 (n * n))
        [ let_ "r" I32 (i32 0);
          let_ "c" I32 (v "t");
          while_ (v "c" >=: i32 n)
            [ set "c" (v "c" -: i32 n); set "r" (v "r" +: i32 1) ];
          if_
            ((v "r" >: i32 0) &&: (v "r" <: i32 (n - 1))
            &&: ((v "c" >: i32 0) &&: (v "c" <: i32 (n - 1))))
            [ store "out" (v "t")
                (f32 0.2
                *: (load "a" (v "t")
                   +: load "a" (v "t" -: i32 1)
                   +: load "a" (v "t" +: i32 1)
                   +: load "a" (v "t" -: i32 n)
                   +: load "a" (v "t" +: i32 n))) ]
            [] ]
        [] ]

let conv2d3x3 name n =
  kernel name [ ("out", ptr F32); ("img", ptr F32); ("w", ptr F32) ]
    [ let_ "t" I32 tid;
      if_ (v "t" <: i32 (n * n))
        [ let_ "r" I32 (i32 0);
          let_ "c" I32 (v "t");
          while_ (v "c" >=: i32 n)
            [ set "c" (v "c" -: i32 n); set "r" (v "r" +: i32 1) ];
          if_
            ((v "r" >: i32 0) &&: (v "r" <: i32 (n - 1))
            &&: ((v "c" >: i32 0) &&: (v "c" <: i32 (n - 1))))
            [ let_ "acc" F32 (f32 0.0);
              for_ "dr" (i32 0) (i32 3)
                [ for_ "dc" (i32 0) (i32 3)
                    [ set "acc"
                        (fma
                           (load "img"
                              ((v "t" +: ((v "dr" -: i32 1) *: i32 n))
                              +: (v "dc" -: i32 1)))
                           (load "w" ((v "dr" *: i32 3) +: v "dc"))
                           (v "acc")) ] ];
              store "out" (v "t") (v "acc") ]
            [] ]
        [] ]

let transpose name n =
  kernel name [ ("out", ptr F32); ("a", ptr F32) ]
    [ let_ "t" I32 tid;
      if_ (v "t" <: i32 (n * n))
        [ let_ "r" I32 (i32 0);
          let_ "c" I32 (v "t");
          while_ (v "c" >=: i32 n)
            [ set "c" (v "c" -: i32 n); set "r" (v "r" +: i32 1) ];
          store "out" ((v "c" *: i32 n) +: v "r") (load "a" (v "t")) ]
        [] ]

let nbody_force name n_bodies =
  kernel name
    [ ("fx", ptr F32); ("px", ptr F32); ("py", ptr F32); ("pz", ptr F32);
      ("n", scalar I32) ]
    (guard_n
       [ let_ "xi" F32 (load "px" (v "i"));
         let_ "yi" F32 (load "py" (v "i"));
         let_ "zi" F32 (load "pz" (v "i"));
         let_ "acc" F32 (f32 0.0);
         for_ "j" (i32 0) (i32 n_bodies)
           [ let_ "dx" F32 (load "px" (v "j") -: v "xi");
             let_ "dy" F32 (load "py" (v "j") -: v "yi");
             let_ "dz" F32 (load "pz" (v "j") -: v "zi");
             let_ "r2" F32
               (fma (v "dx") (v "dx")
                  (fma (v "dy") (v "dy") (fma (v "dz") (v "dz") (f32 1e-4))));
             let_ "inv" F32 (rsqrt (v "r2"));
             let_ "inv3" F32 (v "inv" *: v "inv" *: v "inv");
             set "acc" (fma (v "dx") (v "inv3") (v "acc")) ];
         store "fx" (v "i") (v "acc") ])

let lj_force name n_atoms =
  kernel name [ ("f", ptr F32); ("pos", ptr F32); ("n", scalar I32) ]
    (guard_n
       [ let_ "xi" F32 (load "pos" (v "i"));
         let_ "acc" F32 (f32 0.0);
         for_ "j" (i32 0) (i32 n_atoms)
           [ let_ "dx" F32 (load "pos" (v "j") -: v "xi" +: f32 0.05);
             let_ "r2" F32 (fma (v "dx") (v "dx") (f32 0.01));
             let_ "ir2" F32 (f32 1.0 /: v "r2");
             let_ "ir6" F32 (v "ir2" *: v "ir2" *: v "ir2");
             set "acc"
               (fma (v "ir6") (fma (v "ir6") (f32 12.0) (f32 (-6.0)))
                  (v "acc")) ];
         store "f" (v "i") (v "acc") ])

let coulomb_grid name n_atoms =
  kernel name
    [ ("pot", ptr F32); ("qx", ptr F32); ("qy", ptr F32); ("qz", ptr F32);
      ("q", ptr F32); ("n", scalar I32) ]
    (guard_n
       [ let_ "gx" F32 (cvt F32 (v "i") *: f32 0.1);
         let_ "acc" F32 (f32 0.0);
         for_ "j" (i32 0) (i32 n_atoms)
           [ let_ "dx" F32 (load "qx" (v "j") -: v "gx");
             let_ "dy" F32 (load "qy" (v "j") -: f32 0.5);
             let_ "dz" F32 (load "qz" (v "j") -: f32 0.5);
             let_ "r2" F32
               (fma (v "dx") (v "dx")
                  (fma (v "dy") (v "dy")
                     (fma (v "dz") (v "dz") (f32 1e-6))));
             set "acc" (fma (load "q" (v "j")) (rsqrt (v "r2")) (v "acc")) ];
         store "pot" (v "i") (v "acc") ])

(* Abramowitz–Stegun normal CDF, as in the CUDA sample. The upper-tail
   value is bound to its own variable so the expression is instantiated
   once (both select arms reference it). *)
let cnd x k =
  let l = abs x in
  let kk = f32 1.0 /: fma (f32 0.2316419) l (f32 1.0) in
  let poly =
    kk
    *: fma kk
         (fma kk
            (fma kk (fma kk (f32 1.330274429) (f32 (-1.821255978)))
               (f32 1.781477937))
            (f32 (-0.356563782)))
         (f32 0.319381530)
  in
  let polyc = f32 0.39894228 *: poly in
  let w = fma (neg (exp_ (neg (x *: x) *: f32 0.5))) polyc (f32 1.0) in
  [ let_ (k ^ "_w") F32 w;
    let_ k F32
      (select (x <: f32 0.0) (f32 1.0 -: v (k ^ "_w")) (v (k ^ "_w"))) ]

let black_scholes name =
  kernel name
    [ ("call", ptr F32); ("put", ptr F32); ("s", ptr F32); ("x", ptr F32);
      ("t", ptr F32); ("r", scalar F32); ("vol", scalar F32);
      ("n", scalar I32) ]
    (guard_n
       [ let_ "sv" F32 (load "s" (v "i"));
         let_ "xv" F32 (load "x" (v "i"));
         let_ "tv" F32 (load "t" (v "i"));
         let_ "sqt" F32 (sqrt_ (v "tv"));
         let_ "d1" F32
           ((log_ (v "sv" /: v "xv")
            +: ((v "r" +: (f32 0.5 *: v "vol" *: v "vol")) *: v "tv"))
           /: (v "vol" *: v "sqt"));
         let_ "d2" F32 (v "d1" -: (v "vol" *: v "sqt"));
       ]
      @ cnd (v "d1") "cnd1"
      @ cnd (v "d2") "cnd2"
      @ [
         let_ "expr" F32 (exp_ (neg (v "r") *: v "tv"));
         let_ "c" F32
           ((v "sv" *: v "cnd1") -: (v "xv" *: v "expr" *: v "cnd2"));
         store "call" (v "i") (v "c");
         store "put" (v "i")
           (v "c" -: v "sv" +: (v "xv" *: v "expr")) ])

let monte_carlo_path name steps =
  kernel name
    [ ("out", ptr F32); ("z", ptr F32); ("drift", scalar F32);
      ("vol", scalar F32); ("n", scalar I32) ]
    (guard_n
       [ let_ "sprice" F32 (f32 100.0);
         let_ "zi" F32 (load "z" (v "i"));
         for_ "k" (i32 0) (i32 steps)
           [ set "sprice"
               (v "sprice"
               *: exp_ (fma (v "vol") (v "zi") (v "drift")));
             set "zi" (v "zi" *: f32 (-0.7) +: f32 0.11) ];
         store "out" (v "i") (v "sprice") ])

let heat_stencil name n =
  kernel name [ ("out", ptr F32); ("t_in", ptr F32); ("power", ptr F32) ]
    [ let_ "t" I32 tid;
      if_ ((v "t" >: i32 0) &&: (v "t" <: i32 (n - 1)))
        [ let_ "c" F32 (load "t_in" (v "t"));
          let_ "flux" F32
            (fma (f32 0.1)
               (load "t_in" (v "t" -: i32 1) +: load "t_in" (v "t" +: i32 1)
               -: (f32 2.0 *: v "c"))
               (load "power" (v "t")));
          store "out" (v "t") (v "c" +: v "flux") ]
        [] ]

let laplace3d name n =
  let n2 = n * n in
  kernel name [ ("out", ptr F32); ("a", ptr F32) ]
    [ let_ "t" I32 tid;
      if_ ((v "t" >=: i32 (n2 + n + 1)) &&: (v "t" <: i32 ((n * n2) - n2 - n - 1)))
        [ store "out" (v "t")
            (f32 (1.0 /. 6.0)
            *: (load "a" (v "t" -: i32 1)
               +: load "a" (v "t" +: i32 1)
               +: load "a" (v "t" -: i32 n)
               +: load "a" (v "t" +: i32 n)
               +: load "a" (v "t" -: i32 n2)
               +: load "a" (v "t" +: i32 n2))) ]
        [] ]

let spmv_csr name =
  kernel name
    [ ("y", ptr F32); ("row_ptr", ptr I32); ("col_idx", ptr I32);
      ("vals", ptr F32); ("x", ptr F32); ("n", scalar I32) ]
    (guard_n
       [ let_ "acc" F32 (f32 0.0);
         let_ "k" I32 (load "row_ptr" (v "i"));
         let_ "kend" I32 (load "row_ptr" (v "i" +: i32 1));
         while_ (v "k" <: v "kend")
           [ set "acc"
               (fma (load "vals" (v "k")) (load "x" (load "col_idx" (v "k")))
                  (v "acc"));
             set "k" (v "k" +: i32 1) ];
         store "y" (v "i") (v "acc") ])

let integer_hash name rounds =
  kernel name [ ("out", ptr I32); ("a", ptr I32); ("n", scalar I32) ]
    (guard_n
       [ let_ "h" I32 (load "a" (v "i"));
         for_ "r" (i32 0) (i32 rounds)
           [ set "h" (fma (v "h") (i32 0x5bd1e995) (v "r" +: i32 0x1b873593));
             set "h" (fma (v "h") (i32 33) (v "h")) ];
         store "out" (v "i") (v "h") ])

let bitonic_step name =
  kernel name
    [ ("data", ptr I32); ("j", scalar I32); ("k", scalar I32);
      ("n", scalar I32) ]
    (guard_n
       [ (* partner = i xor j; exchange when partner > i. We lack XOR in
            the DSL; emulate with add/sub on the single bit j (j is a
            power of two): partner = i + j if (i / j) even else i - j;
            parity of i/j tracked by repeated subtraction. *)
         let_ "r" I32 (v "i");
         let_ "par" I32 (i32 0);
         while_ (v "r" >=: v "j")
           [ set "r" (v "r" -: v "j"); set "par" (i32 1 -: v "par") ];
         let_ "partner" I32
           (select (v "par" ==: i32 0) (v "i" +: v "j") (v "i" -: v "j"));
         if_
           ((v "partner" >: v "i") &&: (v "partner" <: v "n"))
           [ let_ "x" I32 (load "data" (v "i"));
             let_ "y" I32 (load "data" (v "partner"));
             if_ (v "y" <: v "x")
               [ store "data" (v "i") (v "y");
                 store "data" (v "partner") (v "x") ]
               [] ]
           [] ])

let bfs_level name =
  kernel name
    [ ("levels", ptr I32); ("row_ptr", ptr I32); ("cols", ptr I32);
      ("lvl", scalar I32); ("n", scalar I32) ]
    (guard_n
       [ if_ (load "levels" (v "i") ==: v "lvl")
           [ let_ "k" I32 (load "row_ptr" (v "i"));
             let_ "kend" I32 (load "row_ptr" (v "i" +: i32 1));
             while_ (v "k" <: v "kend")
               [ let_ "nb" I32 (load "cols" (v "k"));
                 if_ (load "levels" (v "nb") >: (v "lvl" +: i32 1))
                   [ store "levels" (v "nb") (v "lvl" +: i32 1) ]
                   [];
                 set "k" (v "k" +: i32 1) ] ]
           [] ])

let needleman_row name =
  kernel name
    [ ("score", ptr I32); ("a", ptr I32); ("b", ptr I32); ("n", scalar I32) ]
    (guard_n
       [ let_ "up" I32 (load "score" (v "i"));
         let_ "left" I32 (select (v "i" >: i32 0) (load "score" (v "i" -: i32 1)) (i32 0));
         let_ "m" I32
           (select
              (load "a" (v "i") ==: load "b" (v "i"))
              (v "up" +: i32 2)
              (Bin (Max, v "up" -: i32 1, v "left" -: i32 1)));
         store "score" (v "i") (v "m") ])

(* --- Runners --------------------------------------------------------- *)

let ceil_div a b = (a + b - 1) / b

let elem_ty_of_kernel (k : kernel) =
  let rec first = function
    | (_, Ptr ty) :: _ -> ty
    | (_, Scalar _) :: rest -> first rest
    | [] -> F32
  in
  first k.params

let alloc_for ctx ty (xs : float array) =
  match ty with
  | F32 -> W.f32s ctx xs
  | F64 -> W.f64s ctx xs
  | I32 -> W.i32s ctx (Array.map (fun x -> Int32.of_float x) xs)

(* The runner helpers launch 64-thread blocks. *)
let block = 64

let run_out_a_b ?(launches = 1) ~n ~seed k ctx =
  let ty = elem_ty_of_kernel k in
  let prog = W.compile ctx k in
  let elt = match ty with F64 -> 8 | F32 | I32 -> 4 in
  let out = W.zeros ctx ~bytes:(elt * n) in
  let a = alloc_for ctx ty (W.randf ~seed ~lo:0.1 ~hi:4.0 n) in
  let b = alloc_for ctx ty (W.randf ~seed:(seed + 1) ~lo:0.1 ~hi:4.0 n) in
  for _ = 1 to launches do
    W.launch ctx ~grid:(ceil_div n block) ~block prog
      [ Fpx_gpu.Param.Ptr out; Ptr a; Ptr b; I32 (Int32.of_int n) ]
  done

let run_out_a ?(launches = 1) ~n ~seed k ctx =
  let ty = elem_ty_of_kernel k in
  let prog = W.compile ctx k in
  let elt = match ty with F64 -> 8 | F32 | I32 -> 4 in
  let out = W.zeros ctx ~bytes:(elt * n) in
  let a = alloc_for ctx ty (W.randf ~seed ~lo:0.1 ~hi:4.0 n) in
  for _ = 1 to launches do
    W.launch ctx ~grid:(ceil_div n block) ~block prog
      [ Fpx_gpu.Param.Ptr out; Ptr a; I32 (Int32.of_int n) ]
  done
