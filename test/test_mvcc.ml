(* Tests for snapshot-isolation transactions (Mvcc + Snapshot allocator):
   snapshot reads, first-committer-wins, the write-skew anomaly SI
   permits, commit-timestamp recovery, crash points inside commit, the
   GC-horizon clamp, and the zero-lock/zero-latch-wait guarantee for
   snapshot reads. *)

module Env = Pitree_env.Env
module Tsb = Pitree_tsb.Tsb
module Tsb_engine = Pitree_tsb.Tsb_engine
module Mvcc = Pitree_txn.Mvcc
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Snapshot = Pitree_txn.Snapshot
module Lock_manager = Pitree_lock.Lock_manager
module Latch = Pitree_sync.Latch
module Crash_point = Pitree_util.Crash_point
module Recovery = Pitree_wal.Recovery

let cfg () =
  {
    Env.default_config with
    page_size = 512;
    pool_capacity = 8192;
    page_oriented_undo = false;
    consolidation = false;
    si_txns = true;
  }

let mk () =
  let env = Env.create (cfg ()) in
  (env, Tsb.create env ~name:"v")

let get = Alcotest.(check (option string))

(* --- allocator unit tests ---------------------------------------------- *)

let test_alloc_monotone () =
  let s = Snapshot.create () in
  let a = Snapshot.allocate s in
  let b = Snapshot.allocate s in
  let c = Snapshot.allocate s in
  Alcotest.(check (list int)) "consecutive" [ 1; 2; 3 ] [ a; b; c ];
  (* Watermark only advances past retired prefixes: retiring the middle
     allocation alone moves nothing. *)
  Alcotest.(check int) "watermark 0" 0 (Snapshot.completed s);
  Snapshot.retire_all s [ b ];
  Alcotest.(check int) "gap holds watermark" 0 (Snapshot.completed s);
  Snapshot.retire_all s [ a ];
  Alcotest.(check int) "prefix retired -> 2" 2 (Snapshot.completed s);
  Snapshot.retire_all s [ c ];
  Alcotest.(check int) "all retired -> 3" 3 (Snapshot.completed s)

let test_alloc_observe_floor () =
  let s = Snapshot.create () in
  Snapshot.observe_floor s 41;
  Alcotest.(check int) "watermark seeded" 41 (Snapshot.completed s);
  Alcotest.(check int) "next above floor" 42 (Snapshot.allocate s);
  (* An in-flight allocation below a later floor blocks the watermark
     (the floor only raises [next]). *)
  Snapshot.observe_floor s 50;
  Alcotest.(check bool) "inflight 42 holds watermark" true
    (Snapshot.completed s < 42);
  Snapshot.retire_all s [ 42 ];
  Alcotest.(check int) "retire releases to floor" 50 (Snapshot.completed s);
  Alcotest.(check int) "allocate past floor" 51 (Snapshot.allocate s)

let test_alloc_pins_and_gc_cap () =
  let s = Snapshot.create () in
  let ts = Snapshot.allocate s in
  Snapshot.retire_all s [ ts ];
  let r1 = Snapshot.begin_snapshot s in
  Alcotest.(check int) "snapshot pins watermark" ts r1;
  Alcotest.(check int) "live" 1 (Snapshot.live_snapshots s);
  (* No checkpoint yet: GC may retire nothing. *)
  Alcotest.(check int) "gc_cap floor-bound" 0 (Snapshot.gc_cap s);
  Snapshot.note_checkpoint s;
  Alcotest.(check int) "ckpt floor = watermark" ts (Snapshot.checkpoint_floor s);
  (* Now the live snapshot is the binding constraint. *)
  Alcotest.(check int) "gc_cap snapshot-bound" (r1 - 1) (Snapshot.gc_cap s);
  Snapshot.release_snapshot s r1;
  Alcotest.(check int) "released" 0 (Snapshot.live_snapshots s);
  Alcotest.(check int) "gc_cap = ckpt floor" ts (Snapshot.gc_cap s)

(* Satellite: commit-timestamp monotonicity under a multi-domain
   allocation storm — timestamps unique, a fiber's own un-retired
   allocation always bounds the watermark its snapshots pin. *)
let test_alloc_storm () =
  let s = Snapshot.create () in
  let domains = 4 and per = 500 in
  (* Workers only collect violations: Alcotest is not domain-safe, so
     the main domain asserts on them after the joins. *)
  let work _ () =
    let mine = ref [] and bad = ref [] in
    let last = ref 0 in
    for _ = 1 to per do
      let ts = Snapshot.allocate s in
      if ts <= !last then
        bad := Printf.sprintf "non-monotone: %d after %d" ts !last :: !bad;
      last := ts;
      let r = Snapshot.begin_snapshot s in
      if r >= ts then
        bad := Printf.sprintf "snapshot %d not below own in-flight %d" r ts :: !bad;
      Snapshot.release_snapshot s r;
      Snapshot.retire_all s [ ts ];
      mine := ts :: !mine
    done;
    (!mine, !bad)
  in
  let results =
    List.init domains (fun d -> Domain.spawn (work d)) |> List.map Domain.join
  in
  let all = List.concat_map fst results in
  Alcotest.(check (list string)) "allocation invariants" []
    (List.concat_map snd results);
  Alcotest.(check int) "unique" (domains * per)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "watermark = max after quiesce"
    (List.fold_left max 0 all) (Snapshot.completed s);
  Alcotest.(check int) "nothing live" 0 (Snapshot.live_snapshots s)

(* --- SI transaction basics --------------------------------------------- *)

let test_si_basics () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"a" ~value:"v0");
  let mgr = Env.txns env in
  let txn = Mvcc.begin_snapshot mgr in
  get "snapshot sees preload" (Some "v0") (Tsb_engine.find ~txn t "a");
  Tsb_engine.insert ~txn t ~key:"b" ~value:"v1";
  get "own write visible inside" (Some "v1") (Tsb_engine.find ~txn t "b");
  get "buffered write invisible outside" None (Tsb.get t "b");
  let ts = match Mvcc.commit mgr txn with Some ts -> ts | None -> -1 in
  Alcotest.(check bool) "writer got a commit ts" true (ts > 0);
  get "installed at commit" (Some "v1") (Tsb.get t "b");
  get "visible at commit ts" (Some "v1") (Tsb.get_asof t "b" ~time:ts);
  get "absent before commit ts" None (Tsb.get_asof t "b" ~time:(ts - 1));
  (* Read-only transactions commit without a timestamp. *)
  let ro = Mvcc.begin_snapshot mgr in
  get "ro read" (Some "v1") (Tsb_engine.find ~txn:ro t "b");
  Alcotest.(check bool) "read-only commit has no ts" true
    (Mvcc.commit mgr ro = None)

let test_si_snapshot_stable () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"k" ~value:"old");
  let mgr = Env.txns env in
  let txn = Mvcc.begin_snapshot mgr in
  get "before overwrite" (Some "old") (Tsb_engine.find ~txn t "k");
  ignore (Tsb.put t ~key:"k" ~value:"new");
  ignore (Tsb.remove t "k");
  get "snapshot unmoved by put+delete" (Some "old") (Tsb_engine.find ~txn t "k");
  Alcotest.(check int) "scan sees snapshot" 1
    (Tsb_engine.scan ~txn t ~low:"" ~n:10);
  ignore (Mvcc.commit mgr txn);
  let txn2 = Mvcc.begin_snapshot mgr in
  get "fresh snapshot sees tombstone" None (Tsb_engine.find ~txn:txn2 t "k");
  ignore (Mvcc.commit mgr txn2)

let test_si_delete_buffers () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"k" ~value:"v");
  let mgr = Env.txns env in
  let txn = Mvcc.begin_snapshot mgr in
  Alcotest.(check bool) "delete observes live" true (Tsb_engine.delete ~txn t "k");
  get "tombstone buffered" None (Tsb_engine.find ~txn t "k");
  Alcotest.(check bool) "second delete observes dead" false
    (Tsb_engine.delete ~txn t "k");
  get "still live outside" (Some "v") (Tsb.get t "k");
  ignore (Mvcc.commit mgr txn);
  get "tombstone installed" None (Tsb.get t "k")

(* --- first-committer-wins ---------------------------------------------- *)

let test_si_fcw_conflict () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"k" ~value:"base");
  let mgr = Env.txns env in
  let s0 = Mvcc.stats () in
  let t1 = Mvcc.begin_snapshot mgr in
  let t2 = Mvcc.begin_snapshot mgr in
  Tsb_engine.insert ~txn:t1 t ~key:"k" ~value:"first";
  Tsb_engine.insert ~txn:t2 t ~key:"k" ~value:"second";
  Alcotest.(check bool) "first committer wins" true
    (Mvcc.commit mgr t1 <> None);
  (match Mvcc.commit mgr t2 with
  | _ -> Alcotest.fail "second committer must conflict"
  | exception Mvcc.Write_conflict { key; _ } ->
      Alcotest.(check string) "conflicting key" "k" key);
  Alcotest.(check bool) "loser aborted" false (Txn.is_active t2);
  get "winner's value stands" (Some "first") (Tsb.get t "k");
  let d = Mvcc.sub_stats (Mvcc.stats ()) s0 in
  Alcotest.(check int) "one conflict counted" 1 d.Mvcc.conflicts;
  Alcotest.(check int) "one abort counted" 1 d.Mvcc.aborted

(* Write skew is the anomaly SI permits: both transactions read both
   keys, write disjoint keys, and both MUST commit — this is the
   documented expected-pass history (degrading SI to FCW-on-reads or
   upgrading to serializability would fail it). *)
let test_si_write_skew_permitted () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"x" ~value:"1");
  ignore (Tsb.put t ~key:"y" ~value:"1");
  let mgr = Env.txns env in
  let t1 = Mvcc.begin_snapshot mgr in
  let t2 = Mvcc.begin_snapshot mgr in
  get "t1 reads x" (Some "1") (Tsb_engine.find ~txn:t1 t "x");
  get "t1 reads y" (Some "1") (Tsb_engine.find ~txn:t1 t "y");
  get "t2 reads x" (Some "1") (Tsb_engine.find ~txn:t2 t "x");
  get "t2 reads y" (Some "1") (Tsb_engine.find ~txn:t2 t "y");
  Tsb_engine.insert ~txn:t1 t ~key:"y" ~value:"t1";
  Tsb_engine.insert ~txn:t2 t ~key:"x" ~value:"t2";
  Alcotest.(check bool) "t1 commits" true (Mvcc.commit mgr t1 <> None);
  Alcotest.(check bool) "t2 commits (disjoint write sets)" true
    (Mvcc.commit mgr t2 <> None);
  get "t1's write" (Some "t1") (Tsb.get t "y");
  get "t2's write" (Some "t2") (Tsb.get t "x")

(* --- the zero-lock / zero-latch-wait read guarantee --------------------- *)

let test_si_reads_lock_free () =
  let env, t = mk () in
  for i = 0 to 63 do
    ignore (Tsb.put t ~key:(Printf.sprintf "k%02d" i) ~value:"v")
  done;
  ignore (Env.drain env);
  let mgr = Env.txns env in
  let txn = Mvcc.begin_snapshot mgr in
  let locks0 = (Lock_manager.stats (Env.locks env)).Lock_manager.acquisitions in
  let latch0 = (Latch.global_stats ()).Latch.contended in
  for round = 0 to 4 do
    ignore round;
    for i = 0 to 63 do
      ignore (Tsb_engine.find ~txn t (Printf.sprintf "k%02d" i))
    done
  done;
  ignore (Tsb_engine.scan ~txn t ~low:"" ~n:100);
  let locks1 = (Lock_manager.stats (Env.locks env)).Lock_manager.acquisitions in
  let latch1 = (Latch.global_stats ()).Latch.contended in
  Alcotest.(check int) "zero lock-manager calls" 0 (locks1 - locks0);
  Alcotest.(check int) "zero latch waits" 0 (latch1 - latch0);
  let si = Option.get (Mvcc.si_of txn) in
  Alcotest.(check bool) "reads accounted" true (si.Txn.si_reads >= 320);
  ignore (Mvcc.commit mgr txn)

(* --- crash + recovery --------------------------------------------------- *)

let test_si_stale_snapshot_after_recover () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"k" ~value:"v");
  let txn = Mvcc.begin_snapshot (Env.txns env) in
  get "live before crash" (Some "v") (Tsb_engine.find ~txn t "k");
  Env.crash env;
  ignore (Env.recover env);
  let t = Option.get (Tsb.open_existing env ~name:"v") in
  let s0 = Mvcc.stats () in
  (match Tsb_engine.find ~txn t "k" with
  | _ -> Alcotest.fail "stale snapshot must not read"
  | exception Mvcc.Stale_snapshot -> ());
  let d = Mvcc.sub_stats (Mvcc.stats ()) s0 in
  Alcotest.(check int) "stale abort counted" 1 d.Mvcc.stale_aborts;
  (* Commit of the straddling transaction fails the same way. *)
  (match Mvcc.commit (Env.txns env) txn with
  | _ -> Alcotest.fail "stale snapshot must not commit"
  | exception Mvcc.Stale_snapshot -> ());
  (* Fresh transactions against the recovered allocator work. *)
  let txn2 = Mvcc.begin_snapshot (Env.txns env) in
  get "recovered state" (Some "v") (Tsb_engine.find ~txn:txn2 t "k");
  ignore (Mvcc.commit (Env.txns env) txn2)

(* Satellite: recovery rebuilds the allocator from Commit_ts records —
   the recovered floor covers every pre-crash commit timestamp, so new
   timestamps never collide with durable versions. *)
let test_si_recovery_rebuilds_allocator () =
  let env, t = mk () in
  let commit_one mgr t k v =
    let txn = Mvcc.begin_snapshot mgr in
    Tsb_engine.insert ~txn t ~key:k ~value:v;
    match Mvcc.commit mgr txn with Some ts -> ts | None -> assert false
  in
  let ts1 = commit_one (Env.txns env) t "a" "1" in
  let ts2 = commit_one (Env.txns env) t "b" "2" in
  Alcotest.(check bool) "tss increase" true (ts2 > ts1);
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "analysis saw Commit_ts" true
    (report.Recovery.max_commit_ts >= ts2);
  let t = Option.get (Tsb.open_existing env ~name:"v") in
  let mgr = Env.txns env in
  Alcotest.(check bool) "allocator floor covers old commits" true
    (Snapshot.completed (Txn_mgr.snapshots mgr) >= ts2);
  (* A fresh snapshot reads the pre-crash commits... *)
  let txn = Mvcc.begin_snapshot mgr in
  get "a" (Some "1") (Tsb_engine.find ~txn t "a");
  get "b" (Some "2") (Tsb_engine.find ~txn t "b");
  ignore (Mvcc.commit mgr txn);
  (* ...and a fresh commit stamps strictly above them. *)
  let ts3 = commit_one mgr t "c" "3" in
  Alcotest.(check bool) "new ts above recovered floor" true (ts3 > ts2);
  get "old version untouched" (Some "2") (Tsb.get_asof t "b" ~time:ts2)

(* Satellite: crash points inside the commit sequence, including the
   window between timestamp allocation and the Commit_ts record. At
   every point the transaction never committed, so recovery must erase
   its buffered writes and the snapshot state must be exactly
   pre-transaction. *)
let test_si_commit_crash_points () =
  List.iter
    (fun point ->
      Fun.protect ~finally:Crash_point.disarm_all @@ fun () ->
      let env, t = mk () in
      ignore (Tsb.put t ~key:"k" ~value:"base");
      let mgr = Env.txns env in
      let txn = Mvcc.begin_snapshot mgr in
      Tsb_engine.insert ~txn t ~key:"k" ~value:"doomed";
      Tsb_engine.insert ~txn t ~key:"k2" ~value:"doomed2";
      Crash_point.arm point ~after:0;
      (match Mvcc.commit mgr txn with
      | _ -> Alcotest.failf "%s: commit survived an armed crash point" point
      | exception Crash_point.Crash_requested _ -> ());
      Crash_point.disarm_all ();
      Env.crash env;
      ignore (Env.recover env);
      let t = Option.get (Tsb.open_existing env ~name:"v") in
      get (point ^ ": write rolled back") (Some "base") (Tsb.get t "k");
      get (point ^ ": second write rolled back") None (Tsb.get t "k2");
      (* The allocator recovered past whatever the doomed commit used. *)
      let txn2 = Mvcc.begin_snapshot (Env.txns env) in
      Tsb_engine.insert ~txn:txn2 t ~key:"k" ~value:"after";
      Alcotest.(check bool)
        (point ^ ": post-recovery commit works")
        true
        (Mvcc.commit (Env.txns env) txn2 <> None);
      get (point ^ ": post-recovery value") (Some "after") (Tsb.get t "k"))
    [ "mvcc.commit.validated"; "mvcc.commit.allocated"; "mvcc.commit.logged" ]

(* --- GC horizon --------------------------------------------------------- *)

let test_si_gc_horizon_clamp () =
  let env, t = mk () in
  for i = 0 to 9 do
    ignore (Tsb.put t ~key:"k" ~value:(string_of_int i))
  done;
  let mgr = Env.txns env in
  let snap = Txn_mgr.snapshots mgr in
  (* Before any checkpoint the floor is 0: GC may retire nothing. *)
  Tsb.set_horizon t 1_000_000;
  Alcotest.(check int) "no checkpoint -> horizon pinned at 0" 0
    (Tsb.horizon t);
  (* A live snapshot bounds the horizon below its read timestamp even
     after a checkpoint raises the floor. *)
  let txn = Mvcc.begin_snapshot mgr in
  let read_ts = (Option.get (Mvcc.si_of txn)).Txn.read_ts in
  for i = 10 to 19 do
    ignore (Tsb.put t ~key:"k" ~value:(string_of_int i))
  done;
  Env.checkpoint env;
  Tsb.set_horizon t 1_000_000;
  Alcotest.(check bool) "live snapshot bounds horizon" true
    (Tsb.horizon t < read_ts);
  get "snapshot still readable" (Some "9")
    (Tsb.get_asof t "k" ~time:read_ts);
  ignore (Mvcc.commit mgr txn);
  (* Snapshot released: the checkpoint floor is the binding constraint. *)
  Tsb.set_horizon t 1_000_000;
  Alcotest.(check int) "released -> horizon = ckpt floor"
    (Snapshot.checkpoint_floor snap) (Tsb.horizon t);
  Alcotest.(check bool) "floor advanced" true (Tsb.horizon t >= read_ts)

let suites =
  [
    ( "mvcc",
      [
        Alcotest.test_case "allocator monotone watermark" `Quick
          test_alloc_monotone;
        Alcotest.test_case "allocator observe_floor" `Quick
          test_alloc_observe_floor;
        Alcotest.test_case "allocator pins + gc_cap" `Quick
          test_alloc_pins_and_gc_cap;
        Alcotest.test_case "allocator 4-domain storm" `Quick test_alloc_storm;
        Alcotest.test_case "si basics" `Quick test_si_basics;
        Alcotest.test_case "snapshot stable under writes" `Quick
          test_si_snapshot_stable;
        Alcotest.test_case "delete buffers tombstone" `Quick
          test_si_delete_buffers;
        Alcotest.test_case "first committer wins" `Quick test_si_fcw_conflict;
        Alcotest.test_case "write skew permitted" `Quick
          test_si_write_skew_permitted;
        Alcotest.test_case "snapshot reads: zero locks, zero latch waits"
          `Quick test_si_reads_lock_free;
        Alcotest.test_case "stale snapshot after recover" `Quick
          test_si_stale_snapshot_after_recover;
        Alcotest.test_case "recovery rebuilds allocator" `Quick
          test_si_recovery_rebuilds_allocator;
        Alcotest.test_case "commit crash points" `Quick
          test_si_commit_crash_points;
        Alcotest.test_case "gc horizon clamp" `Quick test_si_gc_horizon_clamp;
      ] );
  ]
