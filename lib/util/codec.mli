(** Binary encoding helpers shared by the page layout and the log-record
    codec.

    All integers are little-endian. [Buffer]-based writers pair with
    cursor-based readers; readers raise [Corrupt] rather than returning
    partial data, because a short read here always indicates a torn page or
    truncated log record. *)

exception Corrupt of string

(* Writers *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int64 -> unit
val put_int : Buffer.t -> int -> unit
(** 63-bit OCaml int as a 64-bit word. *)

val put_bytes : Buffer.t -> string -> unit
(** Length-prefixed (u32) byte string. *)

val put_float : Buffer.t -> float -> unit

(* Readers: [reader] carries the source string and a mutable offset. *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** [reader ~pos ~len s] reads [s] from [pos] (default 0); [len] (default:
    to the end of [s]) bounds it, so a read past [pos + len] raises
    [Corrupt] as a short read. *)

val pos : reader -> int
val remaining : reader -> int

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int64
val get_int : reader -> int
val get_bytes : reader -> string
val get_float : reader -> float

(* Direct [bytes] accessors for fixed page layouts. *)

val set_u16 : bytes -> int -> int -> unit
val set_u32 : bytes -> int -> int -> unit
val set_i64 : bytes -> int -> int64 -> unit
val read_u16 : bytes -> int -> int
val read_u32 : bytes -> int -> int
val read_i64 : bytes -> int -> int64

val crc32 : ?crc:int32 -> ?off:int -> ?len:int -> string -> int32
(** [crc32 ~crc ~off ~len s] is the CRC-32 (IEEE 802.3: reflected
    polynomial 0xEDB88320, init and final xor 0xFFFFFFFF) of the [len]
    bytes of [s] at [off] ([off] defaults to 0, [len] to the rest of [s]).
    [crc] (default [0l], the CRC of no bytes) continues a checksum:
    [crc32 ~crc:(crc32 a) b = crc32 (a ^ b)]. Used for page checksums and
    log-record framing; allocates nothing per byte. Raises
    [Invalid_argument] when the range is outside [s]. *)
