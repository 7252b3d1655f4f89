module Histogram = Pitree_util.Histogram
module Crash_point = Pitree_util.Crash_point
module Clock = Pitree_sync.Clock

type backing = {
  mutable fd : Unix.file_descr;  (* replaced when truncation rewrites the file *)
  path : string;
  mutable file_end : int;  (* byte offset of the durable tail *)
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;  (* signalled when [durable] advances or a leader retires *)
  group_commit : bool;
  mutable records : string array;
      (* encoded window; lsn n at index n-1-purged *)
  mutable count : int;  (* total LSNs ever appended *)
  mutable purged : int;  (* records discarded from the front by truncation *)
  mutable max_txn : int;  (* highest txn id ever appended (survives purges) *)
  mutable durable : Lsn.t;
  mutable redo_from : Lsn.t;
  mutable ckpt_lsn : Lsn.t;  (* last complete End_checkpoint (null if none) *)
  (* --- group-commit pipeline state (all under [mu]) --- *)
  mutable flushing : bool;  (* a leader currently owns the write path *)
  mutable flush_target : Lsn.t;  (* highest durability anyone has asked for *)
  mutable pending : Lsn.t list;  (* enrolled requests not yet durable *)
  (* --- stats (all under [mu]) --- *)
  mutable forces : int;  (* real fsyncs only *)
  mutable flushes : int;  (* durability-advance events (incl. in-memory) *)
  mutable flush_requests : int;  (* flush calls that found undurable records *)
  mutable logical_commits : int;
      (* commits that asked for durability, whether or not a concurrent
         batch had already covered them: a combined batch enrolls once
         for N commits *)
  mutable bytes : int;
  mutable truncations : int;
  mutable truncated_records : int;
  mutable truncated_bytes : int;
  batch_hist : Histogram.t;  (* enrolled requests covered per flush event *)
  wait_hist : Histogram.t;  (* ns a committer spent blocked in [flush] *)
  backing : backing option;
}

(* Registered up front so sweep harnesses can enumerate it before it ever
   fires. It sits between the batch reaching disk and the waiters being
   woken: the classic lost-acknowledgment window of group commit. *)
let crash_point_synced = "wal.group.synced"

let () = Crash_point.register crash_point_synced

let ckpt_path path = path ^ ".ckpt"

(* The master record: where recovery finds the last complete checkpoint.
   Two integers — the End_checkpoint record's LSN and the redo floor
   (min rec_lsn over its dirty-page table) — kept in a tiny sidecar next to
   the log file rather than in a logged page (a logged page's own recovery
   would depend on the very pointer it stores). *)
let write_master path ~ckpt ~redo =
  let oc = open_out_bin (ckpt_path path) in
  output_string oc (string_of_int ckpt);
  output_char oc '\n';
  output_string oc (string_of_int redo);
  close_out oc

let read_master path =
  match open_in_bin (ckpt_path path) with
  | ic ->
      let line () = try Some (int_of_string (String.trim (input_line ic))) with _ -> None in
      let ckpt = line () in
      let redo = line () in
      close_in ic;
      (match (ckpt, redo) with
      | Some c, Some r -> (c, r)
      | Some c, None -> (c, c)  (* legacy single-int sidecar: redo at the record *)
      | _ -> (Lsn.null, Lsn.null))
  | exception Sys_error _ -> (Lsn.null, Lsn.null)

(* Load the durable prefix of a log file: framed records back to back; a
   torn tail (short or CRC-corrupt final record) is discarded, exactly as a
   real log manager does on restart. The file may start mid-history (after
   a truncation); the first record's embedded LSN tells us how much of the
   prefix was reclaimed. *)
let load_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.make size '\000' in
  let rec fill off =
    if off < size then
      let n = Unix.read fd buf off (size - off) in
      if n = 0 then off else fill (off + n)
    else off
  in
  let got = fill 0 in
  let data = Bytes.sub_string buf 0 got in
  let records = ref [] in
  let off = ref 0 in
  (try
     while !off < got do
       let r = Pitree_util.Codec.reader ~pos:!off data in
       let len = Pitree_util.Codec.get_u32 r in
       let total = 4 + len + 4 in
       if !off + total > got then raise Exit;
       let framed = String.sub data !off total in
       (* Validate CRC before accepting. *)
       ignore (Log_record.decode framed);
       records := framed :: !records;
       off := !off + total
     done
   with Exit | Pitree_util.Codec.Corrupt _ -> ());
  (* Truncate any torn tail so future appends start clean. *)
  if !off < got then Unix.ftruncate fd !off;
  (fd, List.rev !records, !off)

let create ?path ?(group_commit = true) () =
  match path with
  | None ->
      {
        mu = Mutex.create ();
        cond = Condition.create ();
        group_commit;
        records = Array.make 1024 "";
        count = 0;
        purged = 0;
        max_txn = 0;
        durable = Lsn.null;
        redo_from = 1;
        ckpt_lsn = Lsn.null;
        flushing = false;
        flush_target = Lsn.null;
        pending = [];
        forces = 0;
        flushes = 0;
        flush_requests = 0;
        logical_commits = 0;
        bytes = 0;
        truncations = 0;
        truncated_records = 0;
        truncated_bytes = 0;
        batch_hist = Histogram.create ();
        wait_hist = Histogram.create ();
        backing = None;
      }
  | Some path ->
      let fd, recs, file_end = load_file path in
      let n = List.length recs in
      let arr = Array.make (max 1024 n) "" in
      List.iteri (fun i s -> arr.(i) <- s) recs;
      (* A truncated log starts mid-history: the purged prefix is implied
         by the first surviving record's LSN. *)
      let purged =
        match recs with
        | [] -> 0
        | first :: _ -> (Log_record.decode first).Log_record.lsn - 1
      in
      let count = purged + n in
      let master_ckpt, master_redo = read_master path in
      let valid v = v >= purged + 1 && v <= count in
      let ckpt_lsn = if valid master_ckpt then master_ckpt else Lsn.null in
      let redo_from =
        if Lsn.is_null ckpt_lsn then purged + 1
        else if valid master_redo then master_redo
        else purged + 1
      in
      {
        mu = Mutex.create ();
        cond = Condition.create ();
        group_commit;
        records = arr;
        count;
        purged;
        max_txn =
          List.fold_left
            (fun acc s -> max acc (Log_record.decode s).Log_record.txn)
            0 recs;
        durable = count;
        redo_from;
        ckpt_lsn;
        flushing = false;
        flush_target = Lsn.null;
        pending = [];
        forces = 0;
        flushes = 0;
        flush_requests = 0;
        logical_commits = 0;
        bytes = List.fold_left (fun a s -> a + String.length s) 0 recs;
        truncations = 0;
        truncated_records = 0;
        truncated_bytes = 0;
        batch_hist = Histogram.create ();
        wait_hist = Histogram.create ();
        backing = Some { fd; path; file_end };
      }

let window t = t.count - t.purged

let grow t =
  let bigger = Array.make (2 * Array.length t.records) "" in
  Array.blit t.records 0 bigger 0 (window t);
  t.records <- bigger

let append t ~prev ~txn body =
  Mutex.lock t.mu;
  let lsn = t.count + 1 in
  let encoded = Log_record.encode { Log_record.lsn; prev; txn; body } in
  if window t >= Array.length t.records then grow t;
  t.records.(window t) <- encoded;
  t.count <- t.count + 1;
  if txn > t.max_txn then t.max_txn <- txn;
  t.bytes <- t.bytes + String.length encoded;
  Mutex.unlock t.mu;
  lsn

(* Caller holds [t.mu]. Concatenate the frames (durable, upto]. *)
let gather t upto =
  let buf = Buffer.create 4096 in
  for i = t.durable to upto - 1 do
    Buffer.add_string buf t.records.(i - t.purged)
  done;
  Buffer.contents buf

(* One sequential write + one fsync for the whole batch. Only the leader
   (flushing = true) reaches this, so the fd and [file_end] are private to
   it for the duration. Returns true iff a real fsync happened. *)
let write_payload b payload =
  if String.length payload = 0 then false
  else begin
    ignore (Unix.lseek b.fd b.file_end Unix.SEEK_SET);
    let bytes = Bytes.of_string payload in
    let rec push off =
      if off < Bytes.length bytes then
        push (off + Unix.write b.fd bytes off (Bytes.length bytes - off))
    in
    push 0;
    Unix.fsync b.fd;
    b.file_end <- b.file_end + String.length payload;
    true
  end

(* Group-commit core. [mu] is held on entry and exit. The calling thread
   either waits for a leader to cover its LSN or becomes the leader itself:
   it snapshots everything requested so far, performs one write + fsync
   with [mu] released (serial mode keeps it held, reproducing the
   pre-group-commit force path for baseline measurement), publishes the new
   durability horizon and wakes every covered waiter. Requests that arrive
   while the leader is in the write path accumulate for the next leader —
   the pipeline that lets N concurrent committers share O(1) fsyncs. *)
let rec flush_locked t target =
  if t.durable >= target then ()
  else if t.flushing then begin
    Condition.wait t.cond t.mu;
    flush_locked t target
  end
  else begin
    t.flushing <- true;
    let upto = min t.flush_target t.count in
    let payload = match t.backing with None -> "" | Some _ -> gather t upto in
    let synced =
      match t.backing with
      | None -> false
      | Some b ->
          if t.group_commit then begin
            Mutex.unlock t.mu;
            let synced =
              match write_payload b payload with
              | synced -> synced
              | exception e ->
                  (* Leave the pipeline electable before re-raising. *)
                  Mutex.lock t.mu;
                  t.flushing <- false;
                  Condition.broadcast t.cond;
                  Mutex.unlock t.mu;
                  raise e
            in
            Mutex.lock t.mu;
            synced
          end
          else begin
            match write_payload b payload with
            | synced -> synced
            | exception e ->
                t.flushing <- false;
                Condition.broadcast t.cond;
                Mutex.unlock t.mu;
                raise e
          end
    in
    t.durable <- upto;
    t.flushes <- t.flushes + 1;
    if synced then t.forces <- t.forces + 1;
    let covered, rest = List.partition (fun l -> l <= upto) t.pending in
    t.pending <- rest;
    if covered <> [] then Histogram.record t.batch_hist (List.length covered);
    t.flushing <- false;
    (* The batch is durable but its waiters have not been woken yet: a crash
       here loses acknowledgments, never committed work. The hook runs
       outside [mu] so a simulated crash unwinds with the manager unlocked
       and electable. *)
    Mutex.unlock t.mu;
    (try Crash_point.hit crash_point_synced
     with e ->
       Mutex.lock t.mu;
       Condition.broadcast t.cond;
       Mutex.unlock t.mu;
       raise e);
    Mutex.lock t.mu;
    Condition.broadcast t.cond;
    (* [upto >= target] (the target was folded into [flush_target] before
       election), so this returns immediately. *)
    flush_locked t target
  end

let flush ?(commits = 0) t lsn =
  Mutex.lock t.mu;
  let target = min lsn t.count in
  t.logical_commits <- t.logical_commits + commits;
  if target > t.durable then begin
    let t0 = Clock.now_ns () in
    t.flush_requests <- t.flush_requests + 1;
    if target > t.flush_target then t.flush_target <- target;
    t.pending <- target :: t.pending;
    flush_locked t target;
    Histogram.record t.wait_hist (Clock.now_ns () - t0)
  end;
  Mutex.unlock t.mu

let flush_all t =
  Mutex.lock t.mu;
  let target = t.count in
  Mutex.unlock t.mu;
  flush t target

let last_lsn t =
  Mutex.lock t.mu;
  let v = t.count in
  Mutex.unlock t.mu;
  v

let flushed_lsn t =
  Mutex.lock t.mu;
  let v = t.durable in
  Mutex.unlock t.mu;
  v

let first_lsn t =
  Mutex.lock t.mu;
  let v = t.purged + 1 in
  Mutex.unlock t.mu;
  v

let file_bytes t =
  Mutex.lock t.mu;
  let v = Option.map (fun b -> b.file_end) t.backing in
  Mutex.unlock t.mu;
  v

let read t lsn =
  Mutex.lock t.mu;
  if lsn < 1 || lsn > t.count then begin
    Mutex.unlock t.mu;
    invalid_arg (Printf.sprintf "Log_manager.read: bad lsn %d (count %d)" lsn t.count)
  end;
  if lsn <= t.purged then begin
    Mutex.unlock t.mu;
    invalid_arg (Printf.sprintf "Log_manager.read: lsn %d was truncated" lsn)
  end;
  let s = t.records.(lsn - 1 - t.purged) in
  Mutex.unlock t.mu;
  Log_record.decode s

let iter_from t lsn f =
  let get i =
    Mutex.lock t.mu;
    let s =
      if i > t.purged && i <= t.count then Some t.records.(i - 1 - t.purged)
      else None
    in
    Mutex.unlock t.mu;
    s
  in
  let rec go i =
    match get i with
    | None -> ()
    | Some s ->
        f (Log_record.decode s);
        go (i + 1)
  in
  go (max (t.purged + 1) (max 1 lsn))

let max_txn_id t =
  Mutex.lock t.mu;
  let v = t.max_txn in
  Mutex.unlock t.mu;
  v

(* Discard records with lsn < keep_from, reclaiming their space. Only
   durable, pre-redo-point records may go (the clamp is the safety net for
   the documented contract: truncation never removes records at or above
   the redo point, nor records a group-commit leader has yet to write).
   For a file-backed log the surviving durable window is rewritten to a
   temporary file which is fsynced and renamed over the log — the file
   itself shrinks, and a crash during the rewrite leaves either the old or
   the new file, both complete. Returns how many records were discarded. *)
let truncate t ~keep_from =
  Mutex.lock t.mu;
  (* An in-flight leader reads the fd and file offset with [mu] released;
     wait until it retires before touching the file. While we hold [mu] no
     new leader can be elected. *)
  while t.flushing do
    Condition.wait t.cond t.mu
  done;
  let keep_from = min keep_from (min (t.durable + 1) t.redo_from) in
  let n = max 0 (keep_from - 1 - t.purged) in
  if n > 0 then begin
    let w = window t in
    let dropped_bytes = ref 0 in
    for i = 0 to n - 1 do
      dropped_bytes := !dropped_bytes + String.length t.records.(i)
    done;
    Array.blit t.records n t.records 0 (w - n);
    Array.fill t.records (w - n) n "";
    t.purged <- t.purged + n;
    t.truncations <- t.truncations + 1;
    t.truncated_records <- t.truncated_records + n;
    t.truncated_bytes <- t.truncated_bytes + !dropped_bytes;
    match t.backing with
    | None -> ()
    | Some b ->
        (* Rewrite the durable window [keep_from, durable]; the volatile
           tail above [durable] was never in the file. *)
        let buf = Buffer.create 4096 in
        for i = t.purged to t.durable - 1 do
          Buffer.add_string buf t.records.(i - t.purged)
        done;
        let payload = Buffer.contents buf in
        let tmp = b.path ^ ".tmp" in
        let fd = Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let bytes = Bytes.of_string payload in
        let rec push off =
          if off < Bytes.length bytes then
            push (off + Unix.write fd bytes off (Bytes.length bytes - off))
        in
        push 0;
        Unix.fsync fd;
        Unix.close fd;
        Unix.rename tmp b.path;
        Unix.close b.fd;
        b.fd <- Unix.openfile b.path [ Unix.O_RDWR ] 0o644;
        b.file_end <- String.length payload
  end;
  Mutex.unlock t.mu;
  n

let redo_start t = t.redo_from
let checkpoint_lsn t = t.ckpt_lsn

(* Publish a completed checkpoint: [lsn] is its End_checkpoint record,
   [redo] the redo floor recovery may start from. Persisted to the master
   sidecar before returning, so a crash immediately after sees it. *)
let set_checkpoint t ~lsn ~redo =
  Mutex.lock t.mu;
  t.ckpt_lsn <- lsn;
  t.redo_from <- redo;
  (match t.backing with
  | None -> ()
  | Some b -> write_master b.path ~ckpt:lsn ~redo);
  Mutex.unlock t.mu

let crash t =
  Mutex.lock t.mu;
  let fresh =
    match t.backing with
    | None ->
        let fresh = create ~group_commit:t.group_commit () in
        let kept = t.durable - t.purged in
        fresh.count <- t.durable;
        fresh.purged <- t.purged;
        fresh.max_txn <- t.max_txn;
        fresh.durable <- t.durable;
        fresh.records <- Array.make (max 1024 kept) "";
        Array.blit t.records 0 fresh.records 0 kept;
        fresh.redo_from <-
          (if t.redo_from <= t.durable then t.redo_from else t.purged + 1);
        fresh.ckpt_lsn <- (if t.ckpt_lsn <= t.durable then t.ckpt_lsn else Lsn.null);
        fresh.bytes <-
          Array.fold_left (fun acc s -> acc + String.length s) 0
            (Array.sub fresh.records 0 kept);
        fresh
    | Some b ->
        (* Power failure: only the file survives. Reopen it. *)
        Unix.close b.fd;
        create ~path:b.path ~group_commit:t.group_commit ()
  in
  Mutex.unlock t.mu;
  fresh

type stats = {
  appends : int;
  forces : int;
  flushes : int;
  flush_requests : int;
  logical_commits : int;
  bytes : int;
  batch_mean : float;
  batch_p99 : int;
  batch_max : int;
  wait_mean_ns : float;
  wait_p50_ns : int;
  wait_p99_ns : int;
  truncations : int;
  truncated_records : int;
  truncated_bytes : int;
}

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      appends = t.count;
      forces = t.forces;
      flushes = t.flushes;
      flush_requests = t.flush_requests;
      logical_commits = t.logical_commits;
      bytes = t.bytes;
      batch_mean = Histogram.mean t.batch_hist;
      batch_p99 = Histogram.percentile t.batch_hist 99.0;
      batch_max = Histogram.max_value t.batch_hist;
      wait_mean_ns = Histogram.mean t.wait_hist;
      wait_p50_ns = Histogram.percentile t.wait_hist 50.0;
      wait_p99_ns = Histogram.percentile t.wait_hist 99.0;
      truncations = t.truncations;
      truncated_records = t.truncated_records;
      truncated_bytes = t.truncated_bytes;
    }
  in
  Mutex.unlock t.mu;
  s

let pp_stats ppf s =
  Format.fprintf ppf
    "wal: appends=%d forces=%d flushes=%d requests=%d commits=%d bytes=%d \
     batch{mean=%.2f p99=%d max=%d} wait_ns{mean=%.0f p50=%d p99=%d} \
     trunc{n=%d records=%d bytes=%d}"
    s.appends s.forces s.flushes s.flush_requests s.logical_commits s.bytes
    s.batch_mean
    s.batch_p99 s.batch_max s.wait_mean_ns s.wait_p50_ns s.wait_p99_ns
    s.truncations s.truncated_records s.truncated_bytes
