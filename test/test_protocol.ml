(* Deeper protocol tests: the section 4.2/5.x machinery under adversarial
   schedules — in-transaction splits, deferred postings, latch ordering,
   eviction pressure, checkpoints, and randomized crash fuzzing. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Latch_order = Pitree_sync.Latch_order
module Lock_manager = Pitree_lock.Lock_manager
module Lock_mode = Pitree_lock.Lock_mode
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Crash_point = Pitree_util.Crash_point
module Log_manager = Pitree_wal.Log_manager
module Rng = Pitree_util.Rng

let cfg ?(page_size = 256) ?(pool = 4096) ?(page_oriented_undo = false)
    ?(consolidation = true) () =
  { Env.default_config with page_size; pool_capacity = pool; page_oriented_undo; consolidation }

let key i = Printf.sprintf "key%06d" i

let check_wf t =
  let report = Blink.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "not well-formed: %a" Wellformed.pp_report report

(* The in-transaction split path (section 4.2.1): a transaction that has
   already updated records in a node and then overflows it must split
   INSIDE the transaction; abort undoes the split; the index term is never
   posted. *)
let test_in_txn_split_abort () =
  let env = Env.create (cfg ~page_oriented_undo:true ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  (* All updates from one txn into one leaf until it must split. *)
  let i = ref 0 in
  let s0 = Blink.stats t in
  while (Blink.stats t).Blink.leaf_splits + (Blink.stats t).Blink.root_splits
        = s0.Blink.leaf_splits + s0.Blink.root_splits do
    Blink.insert ~txn t ~key:(key !i) ~value:(String.make 24 'v');
    incr i
  done;
  (* The split happened inside the txn (it had updated this node). *)
  Txn_mgr.abort mgr txn;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "everything rolled back" 0 (Blink.count t);
  Alcotest.(check int) "no posting for the undone split" 0
    (Blink.pending_postings t)

let test_in_txn_split_commit_defers_posting () =
  let env = Env.create (cfg ~page_oriented_undo:true ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  (* Force height >= 2 first so splits post (root growth posts nothing). *)
  Txn_mgr.commit mgr txn;
  for i = 0 to 199 do
    Blink.insert t ~key:(key i) ~value:(String.make 24 'v')
  done;
  ignore (Env.drain env);
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  let base = 1_000 in
  let i = ref 0 in
  let target = (Blink.stats t).Blink.leaf_splits + 1 in
  while (Blink.stats t).Blink.leaf_splits < target do
    Blink.insert ~txn t ~key:(key (base + !i)) ~value:(String.make 24 'w');
    incr i
  done;
  (* The split of a node this txn updated ran in-transaction: its posting
     must not be scheduled before commit (section 4.2.2). *)
  let pending_before = Blink.pending_postings t in
  Txn_mgr.commit mgr txn;
  let pending_after = Blink.pending_postings t in
  Alcotest.(check bool)
    (Printf.sprintf "posting deferred to commit (%d -> %d)" pending_before
       pending_after)
    true
    (pending_after >= pending_before);
  ignore (Env.drain env);
  check_wf t

(* The engines' own traversals and structure changes must never violate
   the section 4.1.1 latch order (parents before children, space map
   last); every engine runs its descents through the rank-checked
   protocol core. *)
let latch_order_clean workload () =
  Latch_order.reset ();
  Latch_order.enable true;
  Fun.protect ~finally:(fun () -> Latch_order.enable false) workload;
  Alcotest.(check int) "no latch-order violations" 0 (Latch_order.violations ());
  Latch_order.reset ()

let blink_workload () =
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 1_499 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  for i = 0 to 1_499 do
    if i mod 3 = 0 then ignore (Blink.delete t (key i))
  done;
  for _ = 1 to 10 do
    ignore (Env.drain env)
  done;
  check_wf t

(* Key and time splits, postings, reads, and a gc pass that drains
   history, purges tombstones and merges emptied leaves. *)
let tsb_workload () =
  let module Tsb = Pitree_tsb.Tsb in
  let env = Env.create (cfg ~page_size:512 ()) in
  let t = Tsb.create env ~name:"t" in
  for round = 1 to 4 do
    for i = 0 to 299 do
      ignore (Tsb.put t ~key:(key i) ~value:(string_of_int round))
    done
  done;
  for i = 100 to 299 do
    ignore (Tsb.remove t (key i))
  done;
  for i = 0 to 299 do
    ignore (Tsb.get t (key i))
  done;
  ignore (Tsb.range_asof t ~time:(Tsb.now t) ?low:None ?high:None ~init:0 ~f:(fun n _ _ -> n + 1));
  Tsb.set_horizon t (Tsb.now t);
  ignore (Tsb.gc t : int);
  ignore (Env.drain env);
  if not (Wellformed.ok (Tsb.verify t)) then Alcotest.fail "tsb not well-formed"

(* Data and index splits with clipped postings, finds, region queries,
   and deletes that empty nodes for consolidation. *)
let hb_workload () =
  let module Hb = Pitree_hb.Hb in
  let env = Env.create (cfg ~page_size:512 ()) in
  let t = Hb.create env ~name:"h" ~dims:2 in
  let rng = Rng.create 11L in
  let pts = Array.init 1_500 (fun _ -> [| Rng.float rng 1.0; Rng.float rng 1.0 |]) in
  Array.iteri (fun i p -> Hb.insert t ~point:p ~value:(string_of_int i)) pts;
  Array.iteri (fun i p -> if i mod 2 = 0 then ignore (Hb.delete t p)) pts;
  Array.iter (fun p -> ignore (Hb.find t p)) pts;
  ignore (Hb.query t ~low:[| 0.2; 0.2 |] ~high:[| 0.6; 0.6 |] ~init:0 ~f:(fun n _ _ -> n + 1));
  for _ = 1 to 10 do
    ignore (Env.drain env)
  done;
  if not (Wellformed.ok (Hb.verify t)) then Alcotest.fail "hb not well-formed"

let test_eviction_pressure () =
  (* A pool far smaller than the tree: every operation faults pages in and
     out; the WAL barrier and pin discipline must hold. *)
  let env = Env.create (cfg ~page_size:256 ~pool:16 ()) in
  let t = Blink.create env ~name:"t" in
  let n = 2_000 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(Printf.sprintf "val%06d" i)
  done;
  ignore (Env.drain env);
  check_wf t;
  for i = 0 to n - 1 do
    match Blink.find t (key i) with
    | Some v when v = Printf.sprintf "val%06d" i -> ()
    | _ -> Alcotest.failf "lost %s under eviction pressure" (key i)
  done;
  let stats = Pitree_storage.Buffer_pool.stats (Env.pool env) in
  Alcotest.(check bool) "evictions actually happened" true
    (stats.Pitree_storage.Buffer_pool.evictions > 100)

let test_eviction_then_crash () =
  (* With heavy eviction many pages are already on disk at crash time; redo
     must skip them (page LSN test) and still converge. *)
  let env = Env.create (cfg ~page_size:256 ~pool:16 ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 999 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "some redo skipped (pages already current)" true
    (report.Pitree_wal.Recovery.skipped > 0);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  check_wf t;
  Alcotest.(check int) "all data" 1000 (Blink.count t);
  ignore t

let test_checkpoint_then_crash () =
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 499 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  Env.checkpoint env;
  for i = 500 to 999 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  Env.crash env;
  let report = Env.recover env in
  (* Analysis starts at the checkpoint, not at LSN 1. *)
  let full_log = Log_manager.last_lsn (Env.log env) in
  Alcotest.(check bool)
    (Printf.sprintf "bounded analysis (%d < %d)" report.Pitree_wal.Recovery.analyzed full_log)
    true
    (report.Pitree_wal.Recovery.analyzed < full_log);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  check_wf t;
  Alcotest.(check int) "all data" 1000 (Blink.count t)

let test_posting_completion_idempotent () =
  (* Force the same completion to be discovered many times: searches during
     the pending window re-schedule at most one task, and the action itself
     re-tests (noop when already posted). *)
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to 599 do
    Blink.insert ~txn t ~key:(key i) ~value:"v"
  done;
  Txn_mgr.commit mgr txn;
  (* Postings pending; run a wave of searches (each would re-discover) then
     drain once. *)
  Blink.reset_stats t;
  for _ = 1 to 3 do
    for i = 0 to 599 do
      if i mod 7 = 0 then ignore (Blink.find t (key i))
    done
  done;
  ignore (Env.drain env);
  ignore (Env.drain env);
  let s = Blink.stats t in
  check_wf t;
  Alcotest.(check bool)
    (Printf.sprintf "noop re-tests bounded (completed=%d noop=%d)"
       s.Blink.postings_completed s.Blink.postings_noop)
    true
    (s.Blink.postings_noop <= s.Blink.postings_completed + s.Blink.postings_scheduled + 600)

let test_no_wait_rule_backoff () =
  (* A reader-writer lock conflict on a record must trigger the no-wait
     backoff (release latch, blocking acquire, re-descend), not a hang. *)
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  Blink.insert t ~key:"a" ~value:"1";
  let mgr = Env.txns env in
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  (* t1 holds an X record lock on "a". *)
  Blink.insert ~txn:t1 t ~key:"a" ~value:"2";
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        (* autocommit writer must wait for t1's lock, without deadlock. *)
        Blink.insert t ~key:"a" ~value:"3";
        Atomic.set finished true)
  in
  Thread.delay 0.03;
  Alcotest.(check bool) "writer blocked on lock" false (Atomic.get finished);
  Txn_mgr.commit mgr t1;
  Domain.join d;
  Alcotest.(check bool) "writer finished after commit" true (Atomic.get finished);
  Alcotest.(check (option string)) "last write wins" (Some "3") (Blink.find t "a");
  Alcotest.(check bool) "backoff counted" true
    ((Blink.stats t).Blink.lock_restarts >= 1)

(* Randomized crash fuzz: arbitrary crash point, arbitrary arming count,
   random committed prefix — after recovery the tree is well-formed and
   every auto-committed key is present. *)
let prop_crash_fuzz =
  let open QCheck in
  let points =
    [|
      "blink.split.linked"; "blink.split.committed"; "blink.root.grown";
      "blink.post.latched"; "blink.post.updated"; "blink.post.done";
      "blink.consolidate.linked";
    |]
  in
  Test.make ~name:"randomized crash fuzz" ~count:25
    (make Gen.(triple (int_bound 6) (int_bound 8) (int_range 200 700)))
    (fun (pi, after, n) ->
      Crash_point.disarm_all ();
      let env = Env.create (cfg ()) in
      let t = Blink.create env ~name:"t" in
      let committed = Hashtbl.create 64 in
      Crash_point.arm points.(pi) ~after;
      (try
         for i = 0 to n - 1 do
           (* Model bookkeeping is ordered so that a crash landing inside
              an operation can only leave the TREE ahead of the model,
              never behind: inserts update the model after the fact,
              deletes before. *)
           Blink.insert t ~key:(key i) ~value:(Printf.sprintf "v%d" i);
           Hashtbl.replace committed (key i) (Printf.sprintf "v%d" i);
           if i mod 3 = 0 then begin
             Hashtbl.remove committed (key (i / 2));
             ignore (Blink.delete t (key (i / 2)))
           end
         done
       with Crash_point.Crash_requested _ -> ());
      Crash_point.disarm_all ();
      Env.crash env;
      ignore (Env.recover env);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      if not (Wellformed.ok (Blink.verify t)) then
        Test.fail_report "not well-formed after fuzzed crash";
      Hashtbl.iter
        (fun k v ->
          match Blink.find t k with
          | Some v' when v' = v -> ()
          | _ -> Test.fail_reportf "lost committed %s" k)
        committed;
      true)

let suites =
  [
    ( "protocol.txn-splits",
      [
        Alcotest.test_case "in-txn split + abort" `Quick test_in_txn_split_abort;
        Alcotest.test_case "in-txn split defers posting" `Quick
          test_in_txn_split_commit_defers_posting;
      ] );
    ( "protocol.invariants",
      [
        Alcotest.test_case "latch order clean" `Quick (latch_order_clean blink_workload);
        Alcotest.test_case "latch order clean: tsb" `Quick (latch_order_clean tsb_workload);
        Alcotest.test_case "latch order clean: hb" `Quick (latch_order_clean hb_workload);
        Alcotest.test_case "posting idempotent" `Quick
          test_posting_completion_idempotent;
        Alcotest.test_case "no-wait rule backoff" `Slow test_no_wait_rule_backoff;
      ] );
    ( "protocol.storage",
      [
        Alcotest.test_case "eviction pressure" `Quick test_eviction_pressure;
        Alcotest.test_case "eviction then crash" `Quick test_eviction_then_crash;
        Alcotest.test_case "checkpoint then crash" `Quick test_checkpoint_then_crash;
      ] );
    ( "protocol.fuzz", [ QCheck_alcotest.to_alcotest prop_crash_fuzz ] );
  ]
