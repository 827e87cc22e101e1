(** Device global memory: a flat 32-bit byte-addressed space with a bump
    allocator (there is no [cudaFree] in our runs; a fresh device is made
    per program run).

    [size_bytes] is the logical size: it bounds every access and every
    allocation, but only what a run uses is backed. A dense prefix covers
    the allocated range and grows (doubling, in whole 4 KiB pages) only
    when {!alloc} needs it; stores above it land in sparse 4 KiB pages.
    Every byte nobody stored — above the break included — reads as
    zero. *)

type t

exception Fault of { addr : int; size : int }
(** Raised on an access or an allocation outside [[0, size)]. *)

val create : size_bytes:int -> t
val size : t -> int

val alloc : t -> bytes:int -> int
(** Allocate [bytes] (16-byte aligned), return the device address.
    Contents are NOT zeroed: like [cudaMalloc], fresh allocations carry
    whatever garbage the allocator produces — deterministic per-device
    pseudo-random bytes, so "uninitialised tensor" bugs (paper §5.3)
    reproduce. The garbage overwrites whatever was stored in that range
    before the allocation reached it. *)

val alloc_zeroed : t -> bytes:int -> int

val digest : t -> string
(** MD5 (hex) over the allocated prefix of the device space — the
    golden-output fingerprint a bit-flip campaign classifies against.
    Identical allocation and store sequences give identical digests. *)

(** {1 Images} *)

type image
(** A copy of the whole memory state: every backed byte, the allocation
    break and the sparse pages. Never written once taken, so one image
    may be installed from several domains. *)

val image : t -> image

val install : t -> image -> unit
(** Make [t]'s state a copy of the image's. *)

val equal_image : t -> image -> bool
(** [true] when [t] would read as the image at every address and
    allocate as it would: a stronger test than equal {!digest}s. *)

val load_word : t -> addr:int -> int
val store_word : t -> addr:int -> int -> unit
(** A 32-bit access on a word: the bit pattern zero-extended into an
    [int] (a store keeps the low 32 bits). The executor's path; neither
    allocates. *)

val load_i32 : t -> addr:int -> int32
val store_i32 : t -> addr:int -> int32 -> unit
(** {!load_word} and {!store_word} on [int32]. The executor reads
    through {!load_word}; [load_i32] is public for host code, the tests
    and the reference core. *)

val load_i64 : t -> addr:int -> int64
val store_i64 : t -> addr:int -> int64 -> unit

(** Typed scalar accessors, one load and one store per element type;
    public so host code can read and seed single device values. *)

val load_f32 : t -> addr:int -> Fpx_num.Fp32.t
val store_f32 : t -> addr:int -> Fpx_num.Fp32.t -> unit
val load_f64 : t -> addr:int -> float
val store_f64 : t -> addr:int -> float -> unit

(** {1 Host-side typed array transfer (cudaMemcpy stand-ins)} *)

val write_f32_array : t -> addr:int -> float array -> unit
(** Each element rounded to binary32. *)

val read_f32_array : t -> addr:int -> len:int -> float array
val write_f64_array : t -> addr:int -> float array -> unit
val read_f64_array : t -> addr:int -> len:int -> float array
(** Public, with the other array readers, so host code can copy a
    kernel's results back. *)

val write_i32_array : t -> addr:int -> int32 array -> unit
val read_i32_array : t -> addr:int -> len:int -> int32 array
