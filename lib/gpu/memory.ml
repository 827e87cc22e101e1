(* The logical space is [size] bytes, but only what a run uses is
   backed. [dense] backs [0, Bytes.length dense): it covers [brk] and
   only [alloc] grows it, doubling in whole pages. A store at or above
   its end lands in a sparse 4 KiB page, so an address a campaign flip
   corrupted costs one page, not a dense prefix up to it. Every byte
   nobody stored reads as zero. *)
type t = {
  size : int;
  mutable dense : Bytes.t;
  mutable brk : int;
  pages : (int, Bytes.t) Hashtbl.t;  (** page number -> page *)
}

exception Fault of { addr : int; size : int }

let page_bits = 12
let page = 1 lsl page_bits

(* Deterministic garbage for fresh allocations: a cheap xorshift keyed on
   the address, giving stable "uninitialised memory" contents across runs
   so the SRU case study is reproducible. *)
let garbage_byte addr =
  let x = addr * 2654435761 land 0x7fffffff in
  let x = x lxor (x lsr 13) in
  let x = x * 1103515245 land 0x7fffffff in
  (x lsr 7) land 0xff

(* [digest] hashes [0, brk): the reserved null page and the 16-byte
   alignment gaps between allocations are inside that window, so they
   hold zeros, like every other byte nobody stored. *)
let create ~size_bytes =
  {
    size = size_bytes;
    dense = Bytes.make (min size_bytes page) '\000';
    brk = 16;
    pages = Hashtbl.create 1;
  }

let size t = t.size

(* Back [0, n) densely: double (in whole pages, capped at [size]) and
   move every sparse page the new prefix now covers into it. *)
let reserve t n =
  let old = Bytes.length t.dense in
  if n > old then begin
    let len = min t.size (max (2 * old) ((n + page - 1) land lnot (page - 1))) in
    let dense = Bytes.create len in
    Bytes.blit t.dense 0 dense 0 old;
    Bytes.fill dense old (len - old) '\000';
    if Hashtbl.length t.pages > 0 then
      Hashtbl.filter_map_inplace
        (fun p pg ->
          let base = p lsl page_bits in
          if base < len then begin
            Bytes.blit pg 0 dense base (min page (len - base));
            None
          end
          else Some pg)
        t.pages;
    t.dense <- dense
  end

let alloc t ~bytes =
  let addr = (t.brk + 15) / 16 * 16 in
  if addr + bytes > t.size then raise (Fault { addr; size = bytes });
  reserve t (addr + bytes);
  Bytes.fill t.dense t.brk (addr - t.brk) '\000';
  t.brk <- addr + bytes;
  for k = 0 to bytes - 1 do
    Bytes.set_uint8 t.dense (addr + k) (garbage_byte (addr + k))
  done;
  addr

let alloc_zeroed t ~bytes =
  let addr = alloc t ~bytes in
  Bytes.fill t.dense addr bytes '\000';
  addr

let digest t = Digest.to_hex (Digest.subbytes t.dense 0 t.brk)

(* A copy of the whole state: the dense prefix (past [brk] too), the
   break and every sparse page, so two equal images read the same at
   every address. An image is never written after it is taken: it may
   be shared between domains. *)
type image = { i_dense : Bytes.t; i_brk : int; i_pages : (int * Bytes.t) list }

let image t =
  {
    i_dense = Bytes.copy t.dense;
    i_brk = t.brk;
    i_pages =
      List.sort compare
        (Hashtbl.fold (fun p pg acc -> (p, Bytes.copy pg) :: acc) t.pages []);
  }

(* Same-length dense prefixes are blitted into place, so installing the
   image a same-shaped run took allocates no new prefix. *)
let install t img =
  if Bytes.length t.dense = Bytes.length img.i_dense then
    Bytes.blit img.i_dense 0 t.dense 0 (Bytes.length t.dense)
  else t.dense <- Bytes.copy img.i_dense;
  t.brk <- img.i_brk;
  Hashtbl.reset t.pages;
  List.iter
    (fun (p, pg) -> Hashtbl.replace t.pages p (Bytes.copy pg))
    img.i_pages

let equal_image t img =
  t.brk = img.i_brk
  && Bytes.equal t.dense img.i_dense
  && Hashtbl.length t.pages = List.length img.i_pages
  && List.for_all
       (fun (p, pg) ->
         match Hashtbl.find_opt t.pages p with
         | Some q -> Bytes.equal pg q
         | None -> false)
       img.i_pages

(* Accesses that are not wholly inside [dense]: bounds-checked against
   the logical size, then served byte by byte from the sparse pages, so
   one that straddles the dense end or a page boundary needs no special
   case. Only accesses at or above the dense end take this path. *)
let get_byte t a =
  if a < Bytes.length t.dense then Bytes.get_uint8 t.dense a
  else
    match Hashtbl.find_opt t.pages (a lsr page_bits) with
    | None -> 0
    | Some pg -> Bytes.get_uint8 pg (a land (page - 1))

let set_byte t a v =
  if a < Bytes.length t.dense then Bytes.set_uint8 t.dense a v
  else begin
    let p = a lsr page_bits in
    let pg =
      match Hashtbl.find_opt t.pages p with
      | Some pg -> pg
      | None ->
        let pg = Bytes.make page '\000' in
        Hashtbl.add t.pages p pg;
        pg
    in
    Bytes.set_uint8 pg (a land (page - 1)) v
  end

(* Little-endian, [n] <= 8 bytes, as an int64. *)
let load_slow t ~addr ~size:n =
  if addr < 0 || addr + n > t.size then raise (Fault { addr; size = n });
  let v = ref 0L in
  for k = n - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_byte t (addr + k)))
  done;
  !v

let store_slow t ~addr ~size:n v =
  if addr < 0 || addr + n > t.size then raise (Fault { addr; size = n });
  for k = 0 to n - 1 do
    set_byte t (addr + k)
      (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
  done

let in_dense t ~addr ~size:n = addr >= 0 && addr + n <= Bytes.length t.dense

let load_word t ~addr =
  if in_dense t ~addr ~size:4 then
    Int32.to_int (Bytes.get_int32_le t.dense addr) land 0xffffffff
  else Int64.to_int (load_slow t ~addr ~size:4)

let store_word t ~addr w =
  if in_dense t ~addr ~size:4 then Bytes.set_int32_le t.dense addr (Int32.of_int w)
  else store_slow t ~addr ~size:4 (Int64.of_int (w land 0xffffffff))

let load_i32 t ~addr = Int32.of_int (load_word t ~addr)
let store_i32 t ~addr v = store_word t ~addr (Int32.to_int v)

let load_i64 t ~addr =
  if in_dense t ~addr ~size:8 then Bytes.get_int64_le t.dense addr
  else load_slow t ~addr ~size:8

let store_i64 t ~addr v =
  if in_dense t ~addr ~size:8 then Bytes.set_int64_le t.dense addr v
  else store_slow t ~addr ~size:8 v

let load_f32 t ~addr = load_i32 t ~addr
let store_f32 t ~addr v = store_i32 t ~addr v
let load_f64 t ~addr = Int64.float_of_bits (load_i64 t ~addr)
let store_f64 t ~addr v = store_i64 t ~addr (Int64.bits_of_float v)

let write_f32_array t ~addr xs =
  Array.iteri
    (fun i x -> store_f32 t ~addr:(addr + (4 * i)) (Fpx_num.Fp32.of_float x))
    xs

let read_f32_array t ~addr ~len =
  Array.init len (fun i -> Fpx_num.Fp32.to_float (load_f32 t ~addr:(addr + (4 * i))))

let write_f64_array t ~addr xs =
  Array.iteri (fun i x -> store_f64 t ~addr:(addr + (8 * i)) x) xs

let read_f64_array t ~addr ~len =
  Array.init len (fun i -> load_f64 t ~addr:(addr + (8 * i)))

let write_i32_array t ~addr xs =
  Array.iteri (fun i x -> store_i32 t ~addr:(addr + (4 * i)) x) xs

let read_i32_array t ~addr ~len =
  Array.init len (fun i -> load_i32 t ~addr:(addr + (4 * i)))
