let max_frame = 16 * 1024 * 1024

exception Frame_too_large of int

let write_all fd buf =
  let n = Bytes.length buf in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd buf !off (n - !off)
  done

let write_frame fd s =
  let n = String.length s in
  if n > max_frame then raise (Frame_too_large n);
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string s 0 buf 4 n;
  write_all fd buf

(* [eof_ok] only applies before the first byte: a peer hanging up
   between frames is a clean close, mid-frame it is an error. *)
let read_exact fd n ~eof_ok =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Some buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 && eof_ok then None else raise End_of_file
      | k -> go (off + k)
  in
  go 0

let read_header fd = Option.map Bytes.to_string (read_exact fd 4 ~eof_ok:true)

let read_payload fd header =
  (* the prefix is unsigned: 0x80000000 is 2 GiB, not a negative size *)
  let n = Int32.to_int (String.get_int32_be header 0) land 0xffff_ffff in
  if n > max_frame then raise (Frame_too_large n);
  match read_exact fd n ~eof_ok:false with
  | Some payload -> Bytes.to_string payload
  | None -> assert false

let read_frame fd = Option.map (read_payload fd) (read_header fd)
