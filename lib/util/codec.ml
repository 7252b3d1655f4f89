exception Corrupt of string

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_u16 b v = Buffer.add_uint16_le b (v land 0xffff)
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b v
let put_int b v = put_i64 b (Int64.of_int v)

let put_bytes b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_float b f = put_i64 b (Int64.bits_of_float f)

type reader = { src : string; mutable off : int; stop : int }

let reader ?(pos = 0) ?len src =
  let stop = match len with Some n -> pos + n | None -> String.length src in
  if pos < 0 || stop < pos || stop > String.length src then
    invalid_arg "Codec.reader";
  { src; off = pos; stop }

let pos r = r.off
let remaining r = r.stop - r.off

let need r n =
  if r.off + n > r.stop then
    raise (Corrupt (Printf.sprintf "short read: need %d at %d, have %d" n r.off r.stop))

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.off] in
  r.off <- r.off + 1;
  v

let get_u16 r =
  need r 2;
  let v = String.get_uint16_le r.src r.off in
  r.off <- r.off + 2;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.off) land 0xffffffff in
  r.off <- r.off + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.off in
  r.off <- r.off + 8;
  v

let get_int r = Int64.to_int (get_i64 r)

let get_bytes r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.src r.off n in
  r.off <- r.off + n;
  s

let get_float r = Int64.float_of_bits (get_i64 r)

let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let set_i64 b off v = Bytes.set_int64_le b off v
let read_u16 b off = Bytes.get_uint16_le b off
let read_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let read_i64 b off = Bytes.get_int64_le b off

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and final
   xor 0xFFFFFFFF), sliced by 8: table [k] (entries [k*256 .. k*256+255])
   advances a byte through k further zero bytes, so one step folds eight
   input bytes with eight lookups. Entries are native ints, and the loop
   keeps the register in an unboxed local, so nothing is allocated per
   byte. *)
let crc_table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let crc32 ?(crc = 0l) ?(off = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - off in
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Codec.crc32";
  let t = crc_table in
  let c = ref (Int32.to_int crc land 0xffffffff lxor 0xffffffff) in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let a = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xffffffff) in
    let b = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xffffffff in
    c :=
      Array.unsafe_get t (1792 + (a land 0xff))
      lxor Array.unsafe_get t (1536 + ((a lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((a lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (a lsr 24))
      lxor Array.unsafe_get t (768 + (b land 0xff))
      lxor Array.unsafe_get t (512 + ((b lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((b lsr 16) land 0xff))
      lxor Array.unsafe_get t (b lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xffffffff)
