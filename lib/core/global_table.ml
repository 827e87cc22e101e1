(* One byte per slot, in chunks of [chunk] slots allocated on the first
   mark that falls in them: a run marks a handful of sites, so it backs
   a few KiB of the 2^20-slot table instead of all of it. *)
let chunk_bits = 12
let chunk = 1 lsl chunk_bits

type t = { chunks : Bytes.t array; mutable cardinal : int }

let create () =
  {
    chunks = Array.make (Fpx_tool.Exce.table_slots lsr chunk_bits) Bytes.empty;
    cardinal = 0;
  }

let mem t idx =
  let c = t.chunks.(idx lsr chunk_bits) in
  Bytes.length c > 0 && Bytes.get c (idx land (chunk - 1)) <> '\000'

let test_and_set t idx =
  let c = t.chunks.(idx lsr chunk_bits) in
  let c =
    if Bytes.length c > 0 then c
    else begin
      let c = Bytes.make chunk '\000' in
      t.chunks.(idx lsr chunk_bits) <- c;
      c
    end
  in
  let i = idx land (chunk - 1) in
  if Bytes.get c i = '\000' then begin
    Bytes.set c i '\001';
    t.cardinal <- t.cardinal + 1;
    true
  end
  else false

let reset t idx =
  if mem t idx then begin
    Bytes.set t.chunks.(idx lsr chunk_bits) (idx land (chunk - 1)) '\000';
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let clear t =
  Array.fill t.chunks 0 (Array.length t.chunks) Bytes.empty;
  t.cardinal <- 0

let copy t = { chunks = Array.map Bytes.copy t.chunks; cardinal = t.cardinal }

(* A chunk backed in one table and not the other counts as a
   difference even when it holds no mark: the test may only err
   towards "unequal". *)
let equal a b =
  a.cardinal = b.cardinal && Array.for_all2 Bytes.equal a.chunks b.chunks
