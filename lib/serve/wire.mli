(** Frame codec for the serve socket protocol.

    Every request and response is one frame: a 4-byte big-endian
    payload length followed by that many bytes of UTF-8 JSON. The
    length cap keeps a malformed or hostile peer from ballooning the
    daemon's memory. *)

val max_frame : int
(** 16 MiB — larger frames are rejected, not read. *)

exception Frame_too_large of int

val write_all : Unix.file_descr -> bytes -> unit
(** Write every byte, looping over short writes. *)

val write_frame : Unix.file_descr -> string -> unit
(** @raise Frame_too_large before writing anything. *)

val read_header : Unix.file_descr -> string option
(** The next 4 bytes: a frame's length header — or, on the server's
    shared socket, the start of an HTTP request line, which it
    dispatches on. Blocks until all 4 have arrived, however the peer
    splits them. [None] on clean EOF before the first byte.
    @raise End_of_file on EOF after it. *)

val read_payload : Unix.file_descr -> string -> string
(** [read_payload fd header] reads the payload [header] announces.
    @raise Frame_too_large on an oversized header, before reading.
    @raise End_of_file on EOF mid-payload. *)

val read_frame : Unix.file_descr -> string option
(** {!read_header} then {!read_payload}: [None] on clean EOF before a
    header byte.
    @raise End_of_file on EOF mid-frame.
    @raise Frame_too_large on an oversized header. *)
