(* Multi-domain tests for the TSB (multiversion) and hB (multiattribute)
   engines, plus a TSB model-based property: both engines run the same
   Pi-tree protocol, so they must stay correct under parallel writers. *)

module Env = Pitree_env.Env
module Tsb = Pitree_tsb.Tsb
module Hb = Pitree_hb.Hb
module Wellformed = Pitree_core.Wellformed
module Rng = Pitree_util.Rng

let cfg () =
  {
    Env.default_config with
    page_size = 512;
    pool_capacity = 8192;
    page_oriented_undo = false;
    consolidation = false;
  }

let test_tsb_parallel_writers () =
  let env = Env.create (cfg ()) in
  let t = Tsb.create env ~name:"v" in
  let domains = 4 and per = 300 in
  (* Each domain owns disjoint keys; every version it writes must be
     visible at its stamp afterwards. *)
  let work d () =
    let out = ref [] in
    for i = 0 to per - 1 do
      let k = Printf.sprintf "d%d-%04d" d (i mod 40) in
      let v = Printf.sprintf "%d.%d" d i in
      let ts = Tsb.put t ~key:k ~value:v in
      out := (k, ts, v) :: !out
    done;
    !out
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  let written = List.concat_map Domain.join hs in
  ignore (Env.drain env);
  let report = Tsb.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "tsb not well-formed: %a" Wellformed.pp_report report;
  (* Timestamps must be unique (the tree clock is shared). *)
  let stamps = List.map (fun (_, ts, _) -> ts) written in
  Alcotest.(check int) "unique stamps" (List.length stamps)
    (List.length (List.sort_uniq compare stamps));
  List.iter
    (fun (k, ts, v) ->
      match Tsb.get_asof t k ~time:ts with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "lost version %s@%d" k ts)
    written

let test_tsb_readers_during_writes () =
  Seeds.with_seed "mv.tsb.readers-during-writes" @@ fun seed ->
  let env = Env.create (cfg ()) in
  let t = Tsb.create env ~name:"v" in
  for i = 0 to 39 do
    ignore (Tsb.put t ~key:(Printf.sprintf "k%02d" i) ~value:"base")
  done;
  let snap = Tsb.now t in
  let stop = Atomic.make false in
  let reader () =
    let rng = Rng.create seed in
    let n = ref 0 and changed = ref [] in
    while not (Atomic.get stop) do
      let k = Printf.sprintf "k%02d" (Rng.int rng 40) in
      (* The snapshot view must be immutable no matter what writers do. *)
      (match Tsb.get_asof t k ~time:snap with
      | Some "base" -> ()
      | other -> changed := (k, Option.value other ~default:"<none>") :: !changed);
      incr n
    done;
    (!n, !changed)
  in
  let writer () =
    for round = 1 to 200 do
      for i = 0 to 39 do
        ignore (Tsb.put t ~key:(Printf.sprintf "k%02d" i) ~value:(string_of_int round))
      done
    done;
    Atomic.set stop true
  in
  let r = Domain.spawn reader in
  let w = Domain.spawn writer in
  Domain.join w;
  let reads, changed = Domain.join r in
  ignore (Env.drain env);
  Alcotest.(check (list (pair string string))) "snapshot unchanged" [] changed;
  Alcotest.(check bool) "reader progressed" true (reads > 0);
  Alcotest.(check bool) "well-formed" true (Wellformed.ok (Tsb.verify t))

let test_hb_parallel_writers () =
  Seeds.with_seed "mv.hb.parallel-writers" @@ fun seed ->
  let env = Env.create (cfg ()) in
  let t = Hb.create env ~name:"h" ~dims:2 in
  let domains = 4 and per = 400 in
  let work d () =
    let rng = Rng.create (Int64.add seed (Int64.of_int (500 + d))) in
    let mine = ref [] in
    for i = 0 to per - 1 do
      (* Disjoint x-bands per domain keep final contents deterministic. *)
      let p =
        [| (float_of_int d +. Rng.float rng 1.0) /. float_of_int domains;
           Rng.float rng 1.0 |]
      in
      Hb.insert t ~point:p ~value:(Printf.sprintf "%d.%d" d i);
      mine := (p, Printf.sprintf "%d.%d" d i) :: !mine
    done;
    !mine
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  let written = List.concat_map Domain.join hs in
  ignore (Env.drain env);
  let report = Hb.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "hb not well-formed: %a" Wellformed.pp_report report;
  Alcotest.(check int) "count" (domains * per) (Hb.count t);
  List.iter
    (fun (p, v) ->
      match Hb.find t p with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "lost point of %s" v)
    written

(* Property: the TSB behaves as a versioned map — after a random script of
   puts/removes, every (key, time) query agrees with a pure model replay. *)
let prop_tsb_versioned_map =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Put (k mod 20, v)) small_nat small_nat);
          (2, map (fun k -> `Remove (k mod 20)) small_nat);
        ])
  in
  Test.make ~name:"tsb = versioned map model" ~count:20
    (make Gen.(list_size (int_range 50 300) op_gen))
    (fun ops ->
      let env = Env.create (cfg ()) in
      let t = Tsb.create env ~name:"v" in
      (* model: per key, assoc list of (stamp, value option), newest first *)
      let model : (int, (int * string option) list) Hashtbl.t = Hashtbl.create 20 in
      let record k ts v =
        let prev = Option.value (Hashtbl.find_opt model k) ~default:[] in
        Hashtbl.replace model k ((ts, v) :: prev)
      in
      List.iter
        (fun op ->
          match op with
          | `Put (k, v) ->
              let ts = Tsb.put t ~key:(string_of_int k) ~value:(string_of_int v) in
              record k ts (Some (string_of_int v))
          | `Remove k ->
              let ts = Tsb.remove t (string_of_int k) in
              record k ts None)
        ops;
      ignore (Env.drain env);
      if not (Wellformed.ok (Tsb.verify t)) then Test.fail_report "not well-formed";
      let horizon = Tsb.now t in
      (* Probe every key at a sample of times. *)
      Hashtbl.iter
        (fun k versions ->
          let expect_at time =
            match List.find_opt (fun (ts, _) -> ts <= time) versions with
            | Some (_, v) -> v
            | None -> None
          in
          List.iter
            (fun time ->
              let got = Tsb.get_asof t (string_of_int k) ~time in
              if got <> expect_at time then
                Test.fail_reportf "key %d at t=%d: got %s want %s" k time
                  (Option.value got ~default:"-")
                  (Option.value (expect_at time) ~default:"-"))
            [ 1; horizon / 3; horizon / 2; horizon - 1; horizon; max_int ];
          (* Full history must equal the model's (sorted) version list. *)
          let hist = Tsb.history t (string_of_int k) in
          let model_hist = List.rev versions in
          if hist <> model_hist then Test.fail_reportf "history mismatch on %d" k)
        model;
      true)

let suites =
  [
    ( "mv.tsb",
      [
        Alcotest.test_case "parallel writers" `Slow test_tsb_parallel_writers;
        Alcotest.test_case "snapshot readers during writes" `Slow
          test_tsb_readers_during_writes;
        QCheck_alcotest.to_alcotest prop_tsb_versioned_map;
      ] );
    ( "mv.hb",
      [ Alcotest.test_case "parallel writers" `Slow test_hb_parallel_writers ] );
  ]
