(* Readings of every layer's public stats, and the per-layer metrics
   derived from two readings taken around a measured phase. The
   process-wide counters (latches, combining, MVCC) are read as
   before/after deltas like the per-environment ones. *)

open Pitree_env
module Blink = Pitree_blink.Blink
module Tsb = Pitree_tsb.Tsb
module Hb = Pitree_hb.Hb
module Buffer_pool = Pitree_storage.Buffer_pool
module Log_manager = Pitree_wal.Log_manager
module Latch = Pitree_sync.Latch
module Lock_manager = Pitree_lock.Lock_manager
module Mvcc = Pitree_txn.Mvcc
module Combine = Pitree_combine.Combine
module Recovery = Pitree_wal.Recovery

type tree = B of Blink.t | T of Tsb.t | H of Hb.t

type reading = {
  blink : Blink.stats option;
  tsb : Tsb.stats option;
  hb : Hb.stats option;
  pool : Buffer_pool.stats;
  wal : Log_manager.stats;
  env : Env.stats;
  latch : Latch.stats;
  lock : Lock_manager.stats;
  mvcc : Mvcc.stats;
  combine : Combine.stats;
}

let read env tree =
  {
    blink = (match tree with B t -> Some (Blink.stats t) | _ -> None);
    tsb = (match tree with T t -> Some (Tsb.stats t) | _ -> None);
    hb = (match tree with H t -> Some (Hb.stats t) | _ -> None);
    pool = Buffer_pool.stats (Env.pool env);
    wal = Log_manager.stats (Env.log env);
    env = Env.stats env;
    latch = Latch.global_stats ();
    lock = Lock_manager.stats (Env.locks env);
    mvcc = Mvcc.stats ();
    combine = Combine.stats ();
  }

(* What the benchmark itself counted or timed during the phase. *)
type phase = {
  ops : int;  (** requests attempted (on si-txn: transactions) *)
  drain_ns : int array;  (** the benchmark's timed [Env.drain] calls *)
  mvcc_commit_ns : int array;  (** timed [Mvcc.commit] calls *)
  gc_ns : int array;  (** timed [Tsb.gc] calls *)
  gc_freed : int;  (** pages the [Tsb.gc] calls returned as freed *)
  free_list_pages : int;  (** free-list length when the phase ended *)
}

type recovery = { report : Recovery.report; recover_ns : int }

let us ns = float_of_int ns /. 1e3
let mean_us a = if Array.length a = 0 then 0. else us (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)
let pct_us a p = if Array.length a = 0 then 0. else us (Pct.nearest_rank (Pct.sorted a) ~pct:p)

(* Name, unit, value. *)
type metric = string * string * float

let metrics ~before:a ~after:b (ph : phase) ~(recoveries : recovery list) :
    metric list =
  let open Pct in
  let ops = ph.ops in
  let per_op n = ratio_i n ops in
  let blink =
    match (a.blink, b.blink) with
    | Some x, Some y ->
        let searches = y.searches - x.searches in
        let reuse = y.path_reuse_hits - x.path_reuse_hits in
        let retrav = y.full_retraversals - x.full_retraversals in
        [
          ("blink.descents_per_op", "count/op", per_op (y.descents - x.descents));
          ("blink.side_traversals_per_op", "count/op", per_op (y.side_traversals - x.side_traversals));
          ("blink.olc_restarts_per_read", "count/read", ratio_i (y.olc_restarts - x.olc_restarts) searches);
          ("blink.olc_fallback_pct", "%", pct_i (y.olc_fallbacks - x.olc_fallbacks) searches);
          ( "blink.splits_per_kop", "count/kop",
            per_kop (y.leaf_splits + y.index_splits + y.root_splits - x.leaf_splits - x.index_splits - x.root_splits) ops );
          ("blink.posting_path_reuse_ratio", "ratio", ratio_i reuse (reuse + retrav));
          ("blink.lock_restarts_per_kop", "count/kop", per_kop (y.lock_restarts - x.lock_restarts) ops);
        ]
    | _ ->
        List.map (fun (n, u) -> (n, u, 0.))
          [ ("blink.descents_per_op", "count/op"); ("blink.side_traversals_per_op", "count/op");
            ("blink.olc_restarts_per_read", "count/read"); ("blink.olc_fallback_pct", "%");
            ("blink.splits_per_kop", "count/kop"); ("blink.posting_path_reuse_ratio", "ratio");
            ("blink.lock_restarts_per_kop", "count/kop") ]
  in
  let tsb =
    let gc = [ ("tsb.gc_ms", "ms", mean_us ph.gc_ns /. 1e3); ("tsb.gc_nodes_freed", "count", float_of_int ph.gc_freed) ] in
    match (a.tsb, b.tsb) with
    | Some x, Some y ->
        [
          ("tsb.time_splits_per_kop", "count/kop", per_kop (y.time_splits - x.time_splits) ops);
          ("tsb.key_splits_per_kop", "count/kop", per_kop (y.key_splits - x.key_splits) ops);
          ("tsb.history_nodes", "count", float_of_int (y.history_nodes - x.history_nodes));
          ("tsb.side_traversals_per_op", "count/op", per_op (y.side_traversals - x.side_traversals));
        ]
        @ gc
    | _ ->
        List.map (fun (n, u) -> (n, u, 0.))
          [ ("tsb.time_splits_per_kop", "count/kop"); ("tsb.key_splits_per_kop", "count/kop");
            ("tsb.history_nodes", "count"); ("tsb.side_traversals_per_op", "count/op") ]
        @ gc
  in
  let hb =
    match (a.hb, b.hb) with
    | Some x, Some y ->
        [
          ("hb.side_traversals_per_op", "count/op", per_op (y.side_traversals - x.side_traversals));
          ( "hb.splits_per_kop", "count/kop",
            per_kop (y.data_splits + y.index_splits + y.root_splits - x.data_splits - x.index_splits - x.root_splits) ops );
          ( "hb.clipped_posting_ratio", "ratio",
            ratio_i (y.clipped_postings - x.clipped_postings) (y.postings_completed - x.postings_completed) );
          ("hb.multi_parent_marks", "count", float_of_int (y.multi_parent_marks - x.multi_parent_marks));
        ]
    | _ ->
        List.map (fun (n, u) -> (n, u, 0.))
          [ ("hb.side_traversals_per_op", "count/op"); ("hb.splits_per_kop", "count/kop");
            ("hb.clipped_posting_ratio", "ratio"); ("hb.multi_parent_marks", "count") ]
  in
  let pool =
    let x = a.pool and y = b.pool in
    let hits = y.hits - x.hits and misses = y.misses - x.misses in
    [
      ("pool.hit_ratio", "ratio", ratio_i hits (hits + misses));
      ("pool.misses_per_op", "count/op", per_op misses);
      ("pool.evictions_per_op", "count/op", per_op (y.evictions - x.evictions));
      ("pool.page_writes_per_op", "count/op", per_op (y.flushes - x.flushes));
      ( "pool.miss_wait_us_mean", "us",
        mean_between ~mean0:x.miss_wait_mean_ns ~n0:x.misses ~mean1:y.miss_wait_mean_ns ~n1:y.misses /. 1e3 );
    ]
  in
  let wal =
    let x = a.wal and y = b.wal in
    let reqs = y.flush_requests - x.flush_requests in
    [
      ("wal.bytes_per_op", "B/op", per_op (y.bytes - x.bytes));
      ("wal.appends_per_op", "count/op", per_op (y.appends - x.appends));
      ("wal.flush_requests_per_commit", "ratio", ratio_i reqs (y.logical_commits - x.logical_commits));
      ("wal.batch_mean", "count", ratio_i reqs (y.flushes - x.flushes));
      ( "wal.commit_wait_us_mean", "us",
        mean_between ~mean0:x.wait_mean_ns ~n0:x.flush_requests ~mean1:y.wait_mean_ns ~n1:y.flush_requests /. 1e3 );
    ]
  in
  let env =
    let x = a.env and y = b.env in
    [
      ("ckpt.count", "count", float_of_int (y.checkpoints - x.checkpoints));
      ("ckpt.pages_written_per_kop", "count/kop", per_kop (y.ckpt_pages_written - x.ckpt_pages_written) ops);
      ("env.completions_per_kop", "count/kop", per_kop (y.completions_run - x.completions_run) ops);
      ("env.drain_us_mean", "us", mean_us ph.drain_ns);
      ("env.free_list_pages", "count", float_of_int ph.free_list_pages);
    ]
  in
  let latch =
    let x = a.latch and y = b.latch in
    let acq = y.acquisitions - x.acquisitions in
    [
      ("latch.acquisitions_per_op", "count/op", per_op acq);
      ("latch.contended_pct", "%", pct_i (y.contended - x.contended) acq);
      ("latch.wait_us_per_op", "us/op", ratio (us (y.wait_ns - x.wait_ns)) (float_of_int ops));
    ]
  in
  let lock =
    let x = a.lock and y = b.lock in
    [
      ("lock.acquisitions_per_op", "count/op", per_op (y.acquisitions - x.acquisitions));
      ("lock.waits_per_kop", "count/kop", per_kop (y.waits - x.waits) ops);
      ("lock.deadlocks", "count", float_of_int (y.deadlocks - x.deadlocks));
    ]
  in
  let mvcc =
    let x = a.mvcc and y = b.mvcc in
    [
      ("mvcc.abort_pct", "%", pct_i (y.aborted - x.aborted) (y.begun - x.begun));
      ("mvcc.commit_us_p50", "us", pct_us ph.mvcc_commit_ns 50);
      ("mvcc.commit_us_p99", "us", pct_us ph.mvcc_commit_ns 99);
      ("mvcc.stale_aborts", "count", float_of_int (y.stale_aborts - x.stale_aborts));
    ]
  in
  let combine =
    let x = a.combine and y = b.combine in
    (* Every batch has one leader; the rest of its requests are followers,
       and only followers record a wait. *)
    let batched (s : Combine.stats) = s.batch_mean *. float_of_int s.batches in
    let followers (s : Combine.stats) = int_of_float (Float.round (batched s)) - s.batches in
    [
      ( "combine.batch_mean", "count",
        ratio (batched y -. batched x) (float_of_int (y.batches - x.batches)) );
      ("combine.combined_pct", "%", pct_i (y.combined - x.combined) (y.reqs - x.reqs));
      ("combine.handbacks", "count", float_of_int (y.handbacks - x.handbacks));
      ( "combine.follower_wait_us_mean", "us",
        mean_between ~mean0:x.follower_wait_mean_ns ~n0:(followers x)
          ~mean1:y.follower_wait_mean_ns ~n1:(followers y)
        /. 1e3 );
    ]
  in
  let recovery =
    let med f = match recoveries with [] -> 0. | l -> median (Array.of_list (List.map f l)) in
    [
      ("recovery.analyzed", "count", med (fun r -> float_of_int r.report.Recovery.analyzed));
      ("recovery.redone", "count", med (fun r -> float_of_int r.report.Recovery.redone));
      ( "recovery.torn_pages", "count",
        float_of_int (List.fold_left (fun s r -> s + r.report.Recovery.torn_pages) 0 recoveries) );
      ( "recovery.us_per_redone", "us",
        med (fun r -> ratio (us r.recover_ns) (float_of_int r.report.Recovery.redone)) );
    ]
  in
  blink @ tsb @ hb @ pool @ wal @ env @ latch @ lock @ mvcc @ combine @ recovery
