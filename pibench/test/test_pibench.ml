(* Tests for the benchmark's own code: the percentile and ratio helpers,
   the value codec, the durability ledger (including a planted
   acknowledged-but-never-written key), and a tiny run of every workload
   with its checks passing. *)

open Pibench

let pct () =
  let s = Pct.sorted (Array.init 1000 (fun i -> 1000 - i)) in
  Alcotest.(check int) "p99 of 1..1000 is rank 990" 990 (Pct.nearest_rank s ~pct:99);
  Alcotest.(check int) "p50 of 1..1000" 500 (Pct.nearest_rank s ~pct:50);
  Alcotest.(check int) "p100 is the max" 1000 (Pct.nearest_rank s ~pct:100);
  let ten = Pct.sorted (Array.init 10 (fun i -> i + 1)) in
  Alcotest.(check int) "p50 of 1..10" 5 (Pct.nearest_rank ten ~pct:50);
  Alcotest.(check int) "p99 of 1..10 is the max" 10 (Pct.nearest_rank ten ~pct:99);
  Alcotest.(check int) "one sample" 7 (Pct.nearest_rank [| 7 |] ~pct:1);
  Alcotest.check_raises "no samples" (Invalid_argument "Pct.nearest_rank: no samples")
    (fun () -> ignore (Pct.nearest_rank [||] ~pct:50));
  Alcotest.(check (float 1e-9)) "odd median" 2. (Pct.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Pct.median [| 4.; 1.; 2.; 3. |])

let ratios () =
  Alcotest.(check (float 1e-9)) "ratio" 0.25 (Pct.ratio_i 1 4);
  Alcotest.(check (float 1e-9)) "nothing attempted" 0. (Pct.ratio_i 3 0);
  Alcotest.(check (float 1e-9)) "pct" 50. (Pct.pct_i 1 2);
  Alcotest.(check (float 1e-9)) "per kop" 2.5 (Pct.per_kop 5 2000);
  (* 10 samples of mean 2, then 10 more of mean 4: cumulative mean 3. *)
  Alcotest.(check (float 1e-9)) "mean between readings" 4.
    (Pct.mean_between ~mean0:2. ~n0:10 ~mean1:3. ~n1:20);
  Alcotest.(check (float 1e-9)) "no new samples" 0.
    (Pct.mean_between ~mean0:2. ~n0:10 ~mean1:2. ~n1:10)

let value () =
  let v = Value.encode ~key:42 ~client:2 ~seq:17 in
  Alcotest.(check int) "fixed length" Value.len (String.length v);
  Alcotest.(check (option (triple int int int))) "round trip" (Some (42, 2, 17)) (Value.decode v);
  Alcotest.(check bool) "holds its key" true (Value.holds 42 (Some v));
  Alcotest.(check bool) "another key's value" false (Value.holds 41 (Some v));
  Alcotest.(check bool) "absent" false (Value.holds 42 None);
  Alcotest.(check int) "code" (Value.code ~client:2 ~seq:17) (Value.code_for 42 v);
  Alcotest.(check int) "wrong key code" (-1) (Value.code_for 43 v);
  Alcotest.(check bool) "key order is index order" true (Value.key 9 < Value.key 10);
  Alcotest.(check (option int)) "key index" (Some 123) (Value.key_index (Value.key 123))

(* A store is a list of (key, code) records. *)
let check_store l store =
  Ledger.check l (fun f -> List.iter (fun (key, code) -> f ~key ~code) store)

let preloaded n = List.init n (fun k -> (k, 0))

let ledger_clean () =
  let l = Ledger.create ~preloaded:4 ~preload_code:(fun _ -> 0) in
  Ledger.record l ~key:1 ~code:11 ~start:10 ~ack:20;
  Ledger.record l ~key:9 ~code:90 ~start:30 ~ack:40;
  let store = [ (0, 0); (1, 11); (2, 0); (3, 0); (9, 90) ] in
  let seen, errors = check_store l store in
  Alcotest.(check int) "records seen" 5 seen;
  Alcotest.(check (list string)) "no errors" [] errors

let ledger_planted () =
  (* Key 2's update was acknowledged but never written: the store still
     holds the preload value. *)
  let l = Ledger.create ~preloaded:4 ~preload_code:(fun _ -> 0) in
  Ledger.record l ~key:2 ~code:22 ~start:10 ~ack:20;
  let _, errors = check_store l (preloaded 4) in
  Alcotest.(check int) "one lost write" 1 (List.length errors);
  (* An acknowledged insert of a fresh key that never reached the store. *)
  let l = Ledger.create ~preloaded:4 ~preload_code:(fun _ -> 0) in
  Ledger.record l ~key:7 ~code:70 ~start:10 ~ack:20;
  let _, errors = check_store l (preloaded 4) in
  Alcotest.(check int) "one lost insert" 1 (List.length errors);
  (* A preloaded key missing, a key never written, a key returned twice. *)
  let l = Ledger.create ~preloaded:4 ~preload_code:(fun _ -> 0) in
  let _, errors = check_store l [ (0, 0); (1, 0); (1, 0); (2, 0); (8, 5) ] in
  Alcotest.(check int) "lost, phantom and duplicate" 3 (List.length errors)

let ledger_order () =
  (* Sequential writes: only the later one may survive. *)
  let l = Ledger.create ~preloaded:1 ~preload_code:(fun _ -> 0) in
  Ledger.record l ~key:0 ~code:1 ~start:10 ~ack:20;
  Ledger.record l ~key:0 ~code:2 ~start:30 ~ack:40;
  Alcotest.(check int) "later write survives" 0 (List.length (snd (check_store l [ (0, 2) ])));
  Alcotest.(check int) "overwritten write rejected" 1 (List.length (snd (check_store l [ (0, 1) ])));
  (* Overlapping writes: either may be last. *)
  let l = Ledger.create ~preloaded:1 ~preload_code:(fun _ -> 0) in
  Ledger.record l ~key:0 ~code:1 ~start:10 ~ack:40;
  Ledger.record l ~key:0 ~code:2 ~start:20 ~ack:30;
  Alcotest.(check int) "first overlapping" 0 (List.length (snd (check_store l [ (0, 1) ])));
  Alcotest.(check int) "second overlapping" 0 (List.length (snd (check_store l [ (0, 2) ])));
  Alcotest.(check int) "preload overwritten" 1 (List.length (snd (check_store l [ (0, 0) ])))

let end_to_end =
  [ "setup_s"; "ops_per_s"; "read_p50_us"; "read_p90_us"; "update_p50_us"; "update_p90_us";
    "scan_p50_us"; "scan_p90_us"; "ro_txn_p50_us"; "ro_txn_p90_us"; "rw_txn_p50_us";
    "rw_txn_p90_us"; "recover_s"; "space_amp"; "write_amp"; "ok_op_pct" ]

let tiny_run spec ~trace () =
  let r =
    Bench.run ~out_dir:"pibench_test_out" (Bench.tiny spec) ~seed:3 ~seconds:1 ~trace
  in
  Alcotest.(check (list string)) "no failed checks" [] r.errors;
  Alcotest.(check bool) "correct" true r.correct;
  Alcotest.(check int) "failed" 0 r.failed;
  let names = List.map (fun (n, _, _) -> n) r.metrics in
  if trace then begin
    List.iter
      (fun m -> Alcotest.(check bool) ("reports " ^ m) true (List.mem m names))
      [ "blink.descents_per_op"; "tsb.gc_ms"; "hb.splits_per_kop"; "pool.hit_ratio";
        "wal.bytes_per_op"; "ckpt.count"; "latch.contended_pct"; "lock.deadlocks";
        "mvcc.abort_pct"; "combine.batch_mean"; "recovery.redone"; "trace.overhead_pct" ];
    Alcotest.(check bool) "spans written" true
      (Sys.file_exists (Filename.concat "pibench_test_out" ("spans-" ^ spec.Bench.name ^ ".tsv")))
  end
  else begin
    Alcotest.(check (list string)) "the end-to-end metrics" end_to_end names;
    List.iter
      (fun (n, _, v) -> Alcotest.(check bool) (n ^ " is positive") true (v > 0.))
      r.metrics
  end

let () =
  Alcotest.run "pibench"
    [
      ( "helpers",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick pct;
          Alcotest.test_case "ratios" `Quick ratios;
          Alcotest.test_case "value codec" `Quick value;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "clean store" `Quick ledger_clean;
          Alcotest.test_case "planted lost writes" `Quick ledger_planted;
          Alcotest.test_case "write order" `Quick ledger_order;
        ] );
      ( "tiny runs",
        List.concat_map
          (fun spec ->
            [
              Alcotest.test_case spec.Bench.name `Quick (tiny_run spec ~trace:false);
              Alcotest.test_case (spec.Bench.name ^ " traced") `Quick (tiny_run spec ~trace:true);
            ])
          Bench.specs );
    ]
