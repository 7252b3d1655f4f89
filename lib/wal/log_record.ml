module Codec = Pitree_util.Codec

type txn_kind = User | System

let pp_txn_kind ppf k =
  Format.pp_print_string ppf (match k with User -> "user" | System -> "system")

type lundo = { tree : int; comp : Logical.comp }

type body =
  | Begin of { kind : txn_kind }
  | Commit
  | Abort
  | End
  | Update of { page : int; op : Page_op.t; lundo : lundo option }
  | Clr of { page : int; op : Page_op.t; undo_next : Lsn.t }
  | Page_image of { page : int; image : string }
  | Begin_checkpoint
  | End_checkpoint of {
      begin_lsn : Lsn.t;
      dpt : (int * Lsn.t) list;
      att : (int * Lsn.t * bool) list;
    }
  | Commit_ts of { ts : int }

type t = { lsn : Lsn.t; prev : Lsn.t; txn : int; body : body }

let body_tag = function
  | Begin _ -> 1
  | Commit -> 2
  | Abort -> 3
  | End -> 4
  | Update _ -> 5
  | Clr _ -> 6
  | Page_image _ -> 7
  | Begin_checkpoint -> 8
  | End_checkpoint _ -> 9
  | Commit_ts _ -> 10

(* Framing: u32 payload length, payload, u32 CRC of the payload. The
   record is built in one buffer with both words as placeholders, then
   patched in place. *)
let encode t =
  let b = Buffer.create 64 in
  Codec.put_u32 b 0;
  Codec.put_int b t.lsn;
  Codec.put_int b t.prev;
  Codec.put_int b t.txn;
  Codec.put_u8 b (body_tag t.body);
  (match t.body with
  | Begin { kind } -> Codec.put_u8 b (match kind with User -> 0 | System -> 1)
  | Commit | Abort | End -> ()
  | Update { page; op; lundo } ->
      Codec.put_u32 b page;
      (match lundo with
      | None -> Codec.put_u8 b 0
      | Some { tree; comp } ->
          Codec.put_u8 b 1;
          Codec.put_u32 b tree;
          Logical.encode b comp);
      Page_op.encode b op
  | Clr { page; op; undo_next } ->
      Codec.put_u32 b page;
      Codec.put_int b undo_next;
      Page_op.encode b op
  | Page_image { page; image } ->
      Codec.put_u32 b page;
      Codec.put_bytes b image
  | Begin_checkpoint -> ()
  | End_checkpoint { begin_lsn; dpt; att } ->
      Codec.put_int b begin_lsn;
      Codec.put_u32 b (List.length dpt);
      List.iter
        (fun (page, rec_lsn) ->
          Codec.put_u32 b page;
          Codec.put_int b rec_lsn)
        dpt;
      Codec.put_u32 b (List.length att);
      List.iter
        (fun (txn, lsn, committed) ->
          Codec.put_int b txn;
          Codec.put_int b lsn;
          Codec.put_u8 b (if committed then 1 else 0))
        att
  | Commit_ts { ts } -> Codec.put_int b ts);
  Codec.put_u32 b 0;
  let framed = Buffer.to_bytes b in
  let len = Bytes.length framed - 8 in
  Codec.set_u32 framed 0 len;
  Codec.set_u32 framed (4 + len)
    (Int32.to_int (Codec.crc32 ~off:4 ~len (Bytes.unsafe_to_string framed)));
  Bytes.unsafe_to_string framed

let decode s =
  let r = Codec.reader s in
  let len = Codec.get_u32 r in
  if Codec.remaining r < len + 4 then raise (Codec.Corrupt "log record truncated");
  let crc = Codec.get_u32 (Codec.reader ~pos:(4 + len) s) in
  if crc <> Int32.to_int (Codec.crc32 ~off:4 ~len s) land 0xffffffff then
    raise (Codec.Corrupt "log record CRC mismatch");
  let r = Codec.reader ~pos:4 ~len s in
  let lsn = Codec.get_int r in
  let prev = Codec.get_int r in
  let txn = Codec.get_int r in
  let body =
    match Codec.get_u8 r with
    | 1 ->
        let kind = if Codec.get_u8 r = 0 then User else System in
        Begin { kind }
    | 2 -> Commit
    | 3 -> Abort
    | 4 -> End
    | 5 ->
        let page = Codec.get_u32 r in
        let lundo =
          match Codec.get_u8 r with
          | 0 -> None
          | 1 ->
              let tree = Codec.get_u32 r in
              let comp = Logical.decode r in
              Some { tree; comp }
          | n -> raise (Codec.Corrupt (Printf.sprintf "bad lundo tag %d" n))
        in
        let op = Page_op.decode r in
        Update { page; op; lundo }
    | 6 ->
        let page = Codec.get_u32 r in
        let undo_next = Codec.get_int r in
        let op = Page_op.decode r in
        Clr { page; op; undo_next }
    | 7 ->
        let page = Codec.get_u32 r in
        let image = Codec.get_bytes r in
        Page_image { page; image }
    | 8 -> Begin_checkpoint
    | 9 ->
        let begin_lsn = Codec.get_int r in
        let ndpt = Codec.get_u32 r in
        let dpt =
          List.init ndpt (fun _ ->
              let page = Codec.get_u32 r in
              let rec_lsn = Codec.get_int r in
              (page, rec_lsn))
        in
        let natt = Codec.get_u32 r in
        let att =
          List.init natt (fun _ ->
              let txn = Codec.get_int r in
              let lsn = Codec.get_int r in
              let committed = Codec.get_u8 r = 1 in
              (txn, lsn, committed))
        in
        End_checkpoint { begin_lsn; dpt; att }
    | 10 ->
        let ts = Codec.get_int r in
        Commit_ts { ts }
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad log body tag %d" n))
  in
  { lsn; prev; txn; body }

let pp ppf t =
  let body ppf = function
    | Begin { kind } -> Fmt.pf ppf "begin(%a)" pp_txn_kind kind
    | Commit -> Fmt.string ppf "commit"
    | Abort -> Fmt.string ppf "abort"
    | End -> Fmt.string ppf "end"
    | Update { page; op; lundo } ->
        Fmt.pf ppf "update p%d %a%s" page Page_op.pp op
          (match lundo with None -> "" | Some _ -> " +lundo")
    | Clr { page; op; undo_next } ->
        Fmt.pf ppf "clr p%d %a undo_next=%d" page Page_op.pp op undo_next
    | Page_image { page; image } ->
        Fmt.pf ppf "page_image p%d %dB" page (String.length image)
    | Begin_checkpoint -> Fmt.string ppf "begin_checkpoint"
    | End_checkpoint { begin_lsn; dpt; att } ->
        Fmt.pf ppf "end_checkpoint(begin=%d %d dirty %d active)" begin_lsn
          (List.length dpt) (List.length att)
    | Commit_ts { ts } -> Fmt.pf ppf "commit_ts %d" ts
  in
  Fmt.pf ppf "[%d txn=%d prev=%d %a]" t.lsn t.txn t.prev body t.body
