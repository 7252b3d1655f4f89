(* The four workloads, run as closed loops of two client domains against
   the library's public API, with their correctness checks.

   A run: set the workload up [setups] times (environment, preload,
   warm-up; the last one is kept), run the measured phase (a fixed number
   of requests in slices, each followed by a burst of the request classes
   the workload's mix lacks), then [recover_cycles] times: quiesce,
   checkpoint, a fixed seeded tail of autocommit writes, crash, recover
   and check the tail; the last cycle also verifies the tree and checks
   every acknowledged write of the run. *)

open Pitree_env
open Pitree_txn
module Engine = Pitree_core.Engine
module Wellformed = Pitree_core.Wellformed
module Blink = Pitree_blink.Blink
module Blink_engine = Pitree_blink.Blink_engine
module Tsb = Pitree_tsb.Tsb
module Tsb_engine = Pitree_tsb.Tsb_engine
module Hb = Pitree_hb.Hb
module Disk = Pitree_storage.Disk
module Lock_manager = Pitree_lock.Lock_manager
module Clock = Pitree_sync.Clock
module Rng = Pitree_util.Rng
module Zipf = Pitree_util.Zipf

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                *)

type kind = Read_mostly | Update_spill | Si_txn | Hb_spatial

type spec = {
  name : string;
  kind : kind;
  keys : int;  (** preloaded keys (points on hb-spatial) *)
  pool_frames : int;
  ckpt_log_bytes : int option;
  ops_per_second : int;
      (** nominal rate: the measured phase runs [ops_per_second * seconds]
          requests, a count fixed by the arguments alone *)
  warmup : int;  (** warm-up requests per client *)
  probe : int;  (** probe requests per class per client *)
  tail : int;  (** autocommit writes before each crash *)
  recover_cycles : int;
  setups : int;
  slices : int;
      (** slices of the untraced measured phase; si-txn also runs one gc
          pass per slice's worth of transactions *)
}

let clients = 2
let page_size = 4096
let scan_len = 50
let ro_reads = 16
let rw_pairs = 4
let region = 0.01

let specs =
  [
    { name = "read-mostly"; kind = Read_mostly; keys = 200_000; pool_frames = 16_384;
      ckpt_log_bytes = None; ops_per_second = 130_000; warmup = 20_000; probe = 2_500;
      tail = 2_000; recover_cycles = 5; setups = 3; slices = 5 };
    { name = "update-spill"; kind = Update_spill; keys = 250_000; pool_frames = 1_024;
      ckpt_log_bytes = Some (16 lsl 20); ops_per_second = 9_000; warmup = 10_000; probe = 2_500;
      tail = 2_000; recover_cycles = 5; setups = 3; slices = 5 };
    (* si-txn and hb-spatial measure more requests per second of the run,
       in 11 slices: their tail latencies (rw_txn_p90_us; scan_p90_us,
       region queries being a tenth of the mix and the longest requests)
       spread most from run to run. On a 2-vCPU VM the 10-seed spread
       (IQR/median) of rw_txn_p90_us was 0.29 at half this rate in 5
       slices and 0.15-0.17 here; of scan_p90_us, 0.18-0.25 and 0.12-0.17. *)
    { name = "si-txn"; kind = Si_txn; keys = 100_000; pool_frames = 16_384;
      ckpt_log_bytes = None; ops_per_second = 7_000; warmup = 2_000; probe = 5_000;
      tail = 2_000; recover_cycles = 5; setups = 3; slices = 11 };
    { name = "hb-spatial"; kind = Hb_spatial; keys = 100_000; pool_frames = 16_384;
      ckpt_log_bytes = None; ops_per_second = 32_000; warmup = 10_000; probe = 2_500;
      tail = 2_000; recover_cycles = 5; setups = 3; slices = 11 };
  ]

let find_spec name = List.find_opt (fun s -> s.name = name) specs

(* A small copy of [s] for the benchmark's own tests. *)
let tiny s =
  { s with keys = 3_000; pool_frames = (if s.kind = Update_spill then 64 else 1_024);
    ckpt_log_bytes = Option.map (fun _ -> 256 lsl 10) s.ckpt_log_bytes;
    ops_per_second = 1_000; warmup = 200; probe = 40; tail = 300; recover_cycles = 2;
    setups = 2; slices = 2 }

(* The runtime's collector settings, fixed (and stamped on every report)
   so that they are part of the benchmark's configuration rather than
   whatever OCAMLRUNPARAM says. The minor heap is per domain, so every
   domain the benchmark spawns sets it too. A minor collection stops
   every domain; with OCaml's default 256k-word heap the clients stopped
   each other ~360 times a second, so a stall of one client's CPU stalled
   the other. *)
let minor_heap_words = 4 lsl 20
let space_overhead = 200

let set_gc () =
  Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words; space_overhead }

let spawn f = Domain.spawn (fun () -> set_gc (); f ())

(* Every field explicit: nothing comes from host-derived defaults. *)
let env_config s ~seed =
  {
    Env.page_size;
    pool_capacity = s.pool_frames;
    page_oriented_undo = false;
    consolidation = true;
    log_path = None;
    wal_group_commit = true;
    pool_shards = Some clients;
    pool_pin_attempts = Some 20;
    pool_backoff_seed = Some seed;
    ckpt_log_bytes = s.ckpt_log_bytes;
    ckpt_interval_s = None;
    olc_reads = true;
    combine = true;
    combine_slots = 64;
    combine_window_us = 0;
    si_txns = s.kind = Si_txn;
  }

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | ch when Char.code ch < 0x20 || Char.code ch >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let config_json (c : Env.config) =
  let opt f = function None -> "null" | Some v -> f v in
  Printf.sprintf
    "{\"page_size\": %d, \"pool_capacity\": %d, \"page_oriented_undo\": %b, \
     \"consolidation\": %b, \"log_path\": %s, \"wal_group_commit\": %b, \
     \"pool_shards\": %s, \"pool_pin_attempts\": %s, \"pool_backoff_seed\": %s, \
     \"ckpt_log_bytes\": %s, \"ckpt_interval_s\": %s, \"olc_reads\": %b, \
     \"combine\": %b, \"combine_slots\": %d, \"combine_window_us\": %d, \
     \"si_txns\": %b, \"disk\": \"in_memory\"}"
    c.page_size c.pool_capacity c.page_oriented_undo c.consolidation
    (opt json_str c.log_path)
    c.wal_group_commit (opt string_of_int c.pool_shards)
    (opt string_of_int c.pool_pin_attempts)
    (opt string_of_int c.pool_backoff_seed)
    (opt string_of_int c.ckpt_log_bytes)
    (opt (Printf.sprintf "%g") c.ckpt_interval_s)
    c.olc_reads c.combine c.combine_slots c.combine_window_us c.si_txns

(* ------------------------------------------------------------------ *)
(* Per-client state                                                    *)

let c_read = 0
let c_update = 1
let c_scan = 2
let c_ro = 3
let c_rw = 4
let class_names = [| "read"; "update"; "scan"; "ro_txn"; "rw_txn" |]

(* Growable int vector for write logs (latencies use fixed arrays). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
end

type client = {
  id : int;
  rng : Rng.t;
  tr : Trace.buf;
  lat : int array array;  (** per class, preallocated raw ns samples *)
  nlat : int array;
  mutable recording : bool;
  mutable seq : int;
  (* write log: key, code, start, ack; hb also the point *)
  wkey : Vec.t;
  wcode : Vec.t;
  wstart : Vec.t;
  wack : Vec.t;
  wpoint : (int, float array) Hashtbl.t;
  mutable user_bytes : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable committed : int;  (** si-txn: committed transactions *)
  mutable aborts : int;
  mutable retries : int;
  mutable txns : int;
  mutable drains : int list;  (** ns of timed [Env.drain] calls *)
  mutable commits : int list;  (** ns of timed [Mvcc.commit] calls *)
}

let new_client ~id ~seed ~trace ~caps ~span_cap =
  {
    id;
    rng = Rng.create (Int64.of_int ((seed * 7919) + (id * 104_729) + 1));
    tr = Trace.create ~on:trace ~owner:id ~cap:span_cap;
    lat = Array.map (fun cap -> Array.make cap 0) caps;
    nlat = Array.make (Array.length caps) 0;
    recording = true;
    seq = 0;
    wkey = Vec.create ();
    wcode = Vec.create ();
    wstart = Vec.create ();
    wack = Vec.create ();
    wpoint = Hashtbl.create 16;
    user_bytes = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    committed = 0;
    aborts = 0;
    retries = 0;
    txns = 0;
    drains = [];
    commits = [];
  }

let lat c cls ns =
  if c.recording then begin
    c.lat.(cls).(c.nlat.(cls)) <- ns;
    c.nlat.(cls) <- c.nlat.(cls) + 1
  end

let fail c fmt =
  Printf.ksprintf
    (fun s ->
      c.failed <- c.failed + 1;
      if List.length c.errors < 5 then c.errors <- s :: c.errors)
    fmt

let next_seq c =
  c.seq <- c.seq + 1;
  c.seq

let log_write c ~key ~code ~start ~ack ~bytes =
  Vec.push c.wkey key;
  Vec.push c.wcode code;
  Vec.push c.wstart start;
  Vec.push c.wack ack;
  if c.recording then c.user_bytes <- c.user_bytes + bytes

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)

type barrier = {
  bmu : Mutex.t;
  bcv : Condition.t;
  mutable waiting : int;
  mutable gen : int;
}

(* Everything a run derives from its seed before any timing starts. *)
type inputs = {
  spec : spec;
  seed : int;
  cfg : Env.config;
  zipf : Zipf.t option;  (** key popularity; [None] = uniform *)
  points : float array array;  (** hb-spatial preload *)
  grid : int list array;  (** hb-spatial: preload ids per 0.01 cell *)
}

type ctx = {
  inp : inputs;
  env : Env.t;
  mutable tree : Layers.tree;
  mutable inst : Engine.instance option;  (** b-link and tsb *)
  barrier : barrier;
  gc_every : int;  (** si-txn: transactions per client between gc passes *)
  mutable gc_ns : int list;
  mutable gc_freed : int;
}

let inst ctx = match ctx.inst with Some i -> i | None -> invalid_arg "no engine"

let tsb ctx = match ctx.tree with Layers.T t -> t | _ -> invalid_arg "not tsb"
let hb ctx = match ctx.tree with Layers.H t -> t | _ -> invalid_arg "not hb"

(* Zipf ranks are scattered over the key space (a bijection, since the
   multiplier is a prime larger than any key count) so hot keys do not
   share a leaf. *)
let scatter ctx rank = rank * 1_000_003 mod ctx.inp.spec.keys

let pick ?(uniform = false) ctx c =
  match ctx.inp.zipf with
  | Some z when not uniform -> scatter ctx (Zipf.sample z c.rng)
  | _ -> Rng.int c.rng ctx.inp.spec.keys

let rec pick_distinct ?uniform ctx c n acc =
  if n = 0 then acc
  else
    let k = pick ?uniform ctx c in
    if List.mem k acc then pick_distinct ?uniform ctx c n acc
    else pick_distinct ?uniform ctx c (n - 1) (k :: acc)

let cells = int_of_float (1. /. region)
let cell x = min (cells - 1) (int_of_float (x *. float_of_int cells))

let fresh_point c = [| Rng.float c.rng 1.0; Rng.float c.rng 1.0 |]

(* hb ids: preload points are [0, keys); a fresh point's id packs its
   writer and sequence number. *)
let fresh_id ctx c seq = ctx.inp.spec.keys + (c.id lsl 32) + seq

(* Checks outside the clients' requests: tree verification and the
   durability ledger. *)
type checks = { mutable run : int; mutable failures : string list }

let check ck name ok detail =
  ck.run <- ck.run + 1;
  if not ok then ck.failures <- (name ^ ": " ^ detail) :: ck.failures

let verify ctx ck stage =
  let r =
    match ctx.tree with
    | Layers.B t -> Blink.verify t
    | Layers.T t -> Tsb.verify t
    | Layers.H t -> Hb.verify t
  in
  check ck ("verify " ^ stage) (Wellformed.ok r)
    (Format.asprintf "%a" Wellformed.pp_report r)

let timed_drain ctx c ~parent ~req =
  let s = Trace.start c.tr ~name:Trace.env_drain ~parent ~req in
  let t0 = Clock.now_ns () in
  ignore (Env.drain ctx.env : int);
  let d = Clock.now_ns () - t0 in
  Trace.stop c.tr s;
  if c.recording then c.drains <- d :: c.drains

(* Start every client together; returns the wall time from the start
   signal to the last client's finish. *)
let run_clients cs body =
  let go = Atomic.make false in
  let doms =
    List.map
      (fun c ->
        spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            body c;
            Clock.now_ns ()))
      cs
  in
  let t0 = Clock.now_ns () in
  Atomic.set go true;
  let ends = List.map Domain.join doms in
  List.fold_left max t0 ends - t0

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let point_read ctx c idx =
  let req = Trace.new_req c.tr in
  let key = Value.key idx in
  let s = Trace.start c.tr ~name:Trace.engine_find ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  let r = Engine.find (inst ctx) key in
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_read (t1 - t0);
  if not (Value.holds idx r) then fail c "read %s returned a wrong value" key

let autocommit_update ctx c idx =
  let req = Trace.new_req c.tr in
  let key = Value.key idx in
  let seq = next_seq c in
  let value = Value.encode ~key:idx ~client:c.id ~seq in
  let s = Trace.start c.tr ~name:Trace.engine_insert ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  Engine.insert (inst ctx) ~key ~value;
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_update (t1 - t0);
  log_write c ~key:idx ~code:(Value.code ~client:c.id ~seq) ~start:t0 ~ack:t1
    ~bytes:(Value.key_len + Value.len)

(* Preloaded keys are never deleted, so a scan from key [idx] promises
   min(50, keys - idx) records. On tsb the scan is a bounded as-of-now
   range over the version store: [Engine.scan] there has no upper bound
   and reads every key to the end of the key space before counting. *)
let scan_records ctx low idx =
  match ctx.tree with
  | Layers.T t ->
      Tsb.range_asof t ~time:(Tsb.now t) ~low
        ~high:(Value.key (idx + scan_len))
        ~init:0
        ~f:(fun n _ _ -> n + 1)
  | _ -> Engine.scan (inst ctx) ~low ~n:scan_len

let scan ctx c idx =
  let req = Trace.new_req c.tr in
  let name = match ctx.tree with Layers.T _ -> Trace.tsb_range | _ -> Trace.engine_scan in
  let s = Trace.start c.tr ~name ~parent:(-1) ~req in
  let low = Value.key idx in
  let t0 = Clock.now_ns () in
  let n = scan_records ctx low idx in
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_scan (t1 - t0);
  let want = min scan_len (ctx.inp.spec.keys - idx) in
  if n <> want then fail c "scan from %s returned %d records, want %d" low n want

(* Two-phase-locking transactions (b-link and hb probes): a deadlock
   victim is rolled back and retried, and is not a failure. *)
let with_locked_txn ctx c ~root ~req f =
  let mgr = Env.txns ctx.env in
  let rec attempt n =
    let t0 = Clock.now_ns () in
    let txn = Txn_mgr.begin_txn mgr Txn.User in
    match f txn with
    | after_commit ->
        let s = Trace.start c.tr ~name:Trace.txn_commit ~parent:root ~req in
        Txn_mgr.commit mgr txn;
        let t1 = Clock.now_ns () in
        Trace.stop c.tr s;
        after_commit ~start:t0 ~ack:t1;
        t1 - t0
    | exception Lock_manager.Deadlock _ when n < 100 ->
        Txn_mgr.abort mgr txn;
        c.retries <- c.retries + 1;
        attempt (n + 1)
    | exception e ->
        (try Txn_mgr.abort mgr txn with _ -> ());
        raise e
  in
  attempt 0

let locked_ro_txn ctx c =
  let req = Trace.new_req c.tr in
  let root = Trace.start c.tr ~name:Trace.req_ro_txn ~parent:(-1) ~req in
  let d =
    with_locked_txn ctx c ~root ~req (fun txn ->
        for _ = 1 to ro_reads do
          match ctx.tree with
          | Layers.H t ->
              let i = Rng.int c.rng ctx.inp.spec.keys in
              let s = Trace.start c.tr ~name:Trace.hb_find ~parent:root ~req in
              let r = Hb.find t ctx.inp.points.(i) in
              Trace.stop c.tr s;
              if not (Value.holds i r) then fail c "txn read of point %d wrong" i
          | _ ->
              let i = Rng.int c.rng ctx.inp.spec.keys in
              let s = Trace.start c.tr ~name:Trace.engine_find ~parent:root ~req in
              let r = Engine.find ~txn (inst ctx) (Value.key i) in
              Trace.stop c.tr s;
              if not (Value.holds i r) then fail c "txn read of key %d wrong" i
        done;
        fun ~start:_ ~ack:_ -> ())
  in
  Trace.stop c.tr root;
  lat c c_ro d

let locked_rw_txn ctx c =
  let req = Trace.new_req c.tr in
  let root = Trace.start c.tr ~name:Trace.req_rw_txn ~parent:(-1) ~req in
  let d =
    with_locked_txn ctx c ~root ~req (fun txn ->
        match ctx.tree with
        | Layers.H t ->
            let written =
              List.init rw_pairs (fun _ ->
                  let i = Rng.int c.rng ctx.inp.spec.keys in
                  let s = Trace.start c.tr ~name:Trace.hb_find ~parent:root ~req in
                  let r = Hb.find t ctx.inp.points.(i) in
                  Trace.stop c.tr s;
                  if not (Value.holds i r) then fail c "txn read of point %d wrong" i;
                  let seq = next_seq c in
                  let id = fresh_id ctx c seq in
                  let p = fresh_point c in
                  let s = Trace.start c.tr ~name:Trace.hb_insert ~parent:root ~req in
                  Hb.insert ~txn t ~point:p ~value:(Value.encode ~key:id ~client:c.id ~seq);
                  Trace.stop c.tr s;
                  (id, p))
            in
            fun ~start ~ack ->
              List.iter
                (fun (id, p) ->
                  Hashtbl.replace c.wpoint id p;
                  log_write c ~key:id ~code:id ~start ~ack ~bytes:(16 + Value.len))
                written
        | _ ->
            let keys = pick_distinct ~uniform:true ctx c rw_pairs [] in
            let written =
              List.map
                (fun i ->
                  let key = Value.key i in
                  let s = Trace.start c.tr ~name:Trace.engine_find ~parent:root ~req in
                  let r = Engine.find ~txn (inst ctx) key in
                  Trace.stop c.tr s;
                  if not (Value.holds i r) then fail c "txn read of key %d wrong" i;
                  let seq = next_seq c in
                  let s = Trace.start c.tr ~name:Trace.engine_insert ~parent:root ~req in
                  Engine.insert ~txn (inst ctx) ~key
                    ~value:(Value.encode ~key:i ~client:c.id ~seq);
                  Trace.stop c.tr s;
                  (i, seq))
                keys
            in
            fun ~start ~ack ->
              List.iter
                (fun (i, seq) ->
                  log_write c ~key:i ~code:(Value.code ~client:c.id ~seq) ~start ~ack
                    ~bytes:(Value.key_len + Value.len))
                written)
  in
  lat c c_rw d;
  timed_drain ctx c ~parent:root ~req;
  Trace.stop c.tr root

(* Snapshot-isolation transactions (si-txn). *)
let si_read ctx c txn ~parent ~req idx =
  let key = Value.key idx in
  let s = Trace.start c.tr ~name:Trace.engine_find ~parent ~req in
  let t0 = Clock.now_ns () in
  let r = Engine.find ~txn (inst ctx) key in
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_read (t1 - t0);
  if not (Value.holds idx r) then fail c "snapshot read of %s wrong" key

let si_commit c mgr txn ~parent ~req =
  let s = Trace.start c.tr ~name:Trace.mvcc_commit ~parent ~req in
  let t0 = Clock.now_ns () in
  let finish () =
    let t1 = Clock.now_ns () in
    Trace.stop c.tr s;
    if c.recording then c.commits <- (t1 - t0) :: c.commits;
    t1
  in
  match Mvcc.commit mgr txn with
  | (_ : int option) -> Ok (t0, finish ())
  | exception (Mvcc.Write_conflict _ as e) ->
      ignore (finish ());
      Error e

(* A snapshot transaction that raises before its commit releases its
   pin, so the gc horizon is not held back. *)
let abort_on_raise mgr txn f =
  try f ()
  with e ->
    Mvcc.abort mgr txn;
    raise e

let si_begin c mgr ~parent ~req =
  let s = Trace.start c.tr ~name:Trace.mvcc_begin ~parent ~req in
  let txn = Mvcc.begin_snapshot mgr in
  Trace.stop c.tr s;
  txn

let si_ro_txn ctx c =
  let mgr = Env.txns ctx.env in
  let req = Trace.new_req c.tr in
  let root = Trace.start c.tr ~name:Trace.req_ro_txn ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  let txn = si_begin c mgr ~parent:root ~req in
  abort_on_raise mgr txn (fun () ->
      for _ = 1 to ro_reads do
        si_read ctx c txn ~parent:root ~req (pick ctx c)
      done);
  (match si_commit c mgr txn ~parent:root ~req with
  | Ok (_, t1) ->
      lat c c_ro (t1 - t0);
      c.committed <- c.committed + 1
  | Error _ -> fail c "read-only snapshot transaction aborted");
  Trace.stop c.tr root

let si_rw_txn ctx c =
  let mgr = Env.txns ctx.env in
  let req = Trace.new_req c.tr in
  let root = Trace.start c.tr ~name:Trace.req_rw_txn ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  let txn = si_begin c mgr ~parent:root ~req in
  let written =
    abort_on_raise mgr txn (fun () ->
        List.map
          (fun i ->
            si_read ctx c txn ~parent:root ~req i;
            let seq = next_seq c in
            let s = Trace.start c.tr ~name:Trace.engine_insert ~parent:root ~req in
            Engine.insert ~txn (inst ctx) ~key:(Value.key i)
              ~value:(Value.encode ~key:i ~client:c.id ~seq);
            Trace.stop c.tr s;
            (i, seq))
          (pick_distinct ctx c rw_pairs []))
  in
  (match si_commit c mgr txn ~parent:root ~req with
  | Ok (start, ack) ->
      lat c c_rw (ack - t0);
      c.committed <- c.committed + 1;
      List.iter
        (fun (i, seq) ->
          log_write c ~key:i ~code:(Value.code ~client:c.id ~seq) ~start ~ack
            ~bytes:(Value.key_len + Value.len))
        written;
      timed_drain ctx c ~parent:root ~req
  | Error _ -> c.aborts <- c.aborts + 1);
  Trace.stop c.tr root

(* Quiesced maintenance at the gc cadence: both clients are parked at the
   barrier, so the checkpoint and gc run with no writer on the tree. *)
let maintenance ctx c =
  let t = tsb ctx in
  let req = Trace.new_req c.tr in
  let root = Trace.start c.tr ~name:Trace.req_maintenance ~parent:(-1) ~req in
  let s = Trace.start c.tr ~name:Trace.env_checkpoint ~parent:root ~req in
  Env.checkpoint ~mode:`Fuzzy ctx.env;
  Trace.stop c.tr s;
  Tsb.set_horizon t (Tsb.now t);
  let s = Trace.start c.tr ~name:Trace.tsb_gc ~parent:root ~req in
  let t0 = Clock.now_ns () in
  let freed = Tsb.gc t in
  let d = Clock.now_ns () - t0 in
  Trace.stop c.tr s;
  Trace.stop c.tr root;
  if c.recording then begin
    ctx.gc_ns <- d :: ctx.gc_ns;
    ctx.gc_freed <- ctx.gc_freed + freed
  end

let await_maintenance ctx c =
  let b = ctx.barrier in
  Mutex.lock b.bmu;
  let gen = b.gen in
  b.waiting <- b.waiting + 1;
  if b.waiting = clients then begin
    (try maintenance ctx c
     with e -> fail c "maintenance: %s" (Printexc.to_string e));
    b.waiting <- 0;
    b.gen <- gen + 1;
    Condition.broadcast b.bcv
  end
  else
    while b.gen = gen do
      Condition.wait b.bcv b.bmu
    done;
  Mutex.unlock b.bmu

(* hb-spatial *)
let hb_find ctx c =
  let i = Rng.int c.rng ctx.inp.spec.keys in
  let req = Trace.new_req c.tr in
  let s = Trace.start c.tr ~name:Trace.hb_find ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  let r = Hb.find (hb ctx) ctx.inp.points.(i) in
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_read (t1 - t0);
  if not (Value.holds i r) then fail c "find of point %d wrong" i

let hb_insert ctx c =
  let seq = next_seq c in
  let id = fresh_id ctx c seq in
  let p = fresh_point c in
  let value = Value.encode ~key:id ~client:c.id ~seq in
  let req = Trace.new_req c.tr in
  let s = Trace.start c.tr ~name:Trace.hb_insert ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  Hb.insert (hb ctx) ~point:p ~value;
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_update (t1 - t0);
  Hashtbl.replace c.wpoint id p;
  log_write c ~key:id ~code:id ~start:t0 ~ack:t1 ~bytes:(16 + Value.len)

let inside ~low ~high p =
  low.(0) <= p.(0) && p.(0) < high.(0) && low.(1) <= p.(1) && p.(1) < high.(1)

(* Preloaded points in the box, from the preload grid. *)
let preloaded_in ctx ~low ~high =
  let n = ref 0 in
  for cx = cell low.(0) to cell high.(0) do
    for cy = cell low.(1) to cell high.(1) do
      List.iter
        (fun i -> if inside ~low ~high ctx.inp.points.(i) then incr n)
        ctx.inp.grid.((cx * cells) + cy)
    done
  done;
  !n

let hb_region ctx c =
  let low = [| Rng.float c.rng (1. -. region); Rng.float c.rng (1. -. region) |] in
  let high = [| low.(0) +. region; low.(1) +. region |] in
  let req = Trace.new_req c.tr in
  let s = Trace.start c.tr ~name:Trace.hb_query ~parent:(-1) ~req in
  let t0 = Clock.now_ns () in
  let outside, preloaded =
    Hb.query (hb ctx) ~low ~high ~init:(0, 0) ~f:(fun (o, p) pt v ->
        let o = if inside ~low ~high pt then o else o + 1 in
        match Value.decode v with
        | Some (id, 0, _) when id < ctx.inp.spec.keys && ctx.inp.points.(id) = pt -> (o, p + 1)
        | _ -> (o, p))
  in
  let t1 = Clock.now_ns () in
  Trace.stop c.tr s;
  lat c c_scan (t1 - t0);
  let want = preloaded_in ctx ~low ~high in
  if outside > 0 || preloaded <> want then
    fail c "region query returned %d preloaded points (want %d), %d outside" preloaded
      want outside

(* One request of the workload's mix. *)
let step ctx c =
  let r = Rng.int c.rng 100 in
  match ctx.inp.spec.kind with
  | Read_mostly ->
      if r < 90 then point_read ctx c (pick ctx c)
      else if r < 95 then autocommit_update ctx c (pick ctx c)
      else scan ctx c (pick ctx c)
  | Update_spill ->
      if r < 50 then point_read ctx c (pick ctx c) else autocommit_update ctx c (pick ctx c)
  | Si_txn ->
      (* Count the transaction even when it raised: both clients must
         reach every gc barrier. *)
      Fun.protect
        ~finally:(fun () ->
          c.txns <- c.txns + 1;
          if c.txns mod ctx.gc_every = 0 then await_maintenance ctx c)
        (fun () -> if r < 50 then si_ro_txn ctx c else si_rw_txn ctx c)
  | Hb_spatial -> if r < 50 then hb_find ctx c else if r < 90 then hb_insert ctx c else hb_region ctx c

let guarded c what f =
  c.attempted <- c.attempted + 1;
  try f () with e -> fail c "%s raised %s" what (Printexc.to_string e)

(* The classes a workload's mix lacks, timed in the probe phase so every
   latency metric is measured on every workload. *)
let probe_classes kind =
  match kind with
  | Read_mostly | Hb_spatial -> [ c_ro; c_rw ]
  | Update_spill -> [ c_scan; c_ro; c_rw ]
  | Si_txn -> [ c_update; c_scan ]

let probe_request ctx c cls =
  if cls = c_ro then locked_ro_txn ctx c
  else if cls = c_rw then locked_rw_txn ctx c
  else if cls = c_scan then scan ctx c (Rng.int c.rng ctx.inp.spec.keys)
  else autocommit_update ctx c (Rng.int c.rng ctx.inp.spec.keys)

(* Warm-up: reads only, over the workload's key distribution. *)
let warm_request ctx c =
  match ctx.inp.spec.kind with
  | Read_mostly | Update_spill -> point_read ctx c (pick ctx c)
  | Si_txn -> si_ro_txn ctx c
  | Hb_spatial -> hb_find ctx c

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)

let preload_batch = 64

let make_inputs spec ~seed =
  let rng = Rng.create (Int64.of_int (seed + 5)) in
  let points =
    if spec.kind = Hb_spatial then
      Array.init spec.keys (fun _ -> [| Rng.float rng 1.0; Rng.float rng 1.0 |])
    else [||]
  in
  let grid = Array.make (if spec.kind = Hb_spatial then cells * cells else 0) [] in
  Array.iteri
    (fun i p ->
      let g = (cell p.(0) * cells) + cell p.(1) in
      grid.(g) <- i :: grid.(g))
    points;
  let zipf =
    match spec.kind with
    | Read_mostly -> Some (Zipf.create ~n:spec.keys ~theta:0.99)
    | Si_txn -> Some (Zipf.create ~n:spec.keys ~theta:0.8)
    | Update_spill | Hb_spatial -> None
  in
  { spec; seed; cfg = env_config spec ~seed; zipf; points; grid }

let new_ctx inp ~gc_every =
  let env = Env.create ~disk:(Disk.in_memory ~page_size) inp.cfg in
  let tree, inst =
    match inp.spec.kind with
    | Read_mostly | Update_spill ->
        let t = Blink.create env ~name:"bench" in
        (Layers.B t, Some (Blink_engine.inst t))
    | Si_txn ->
        let t = Tsb.create env ~name:"bench" in
        (Layers.T t, Some (Tsb_engine.inst t))
    | Hb_spatial -> (Layers.H (Hb.create env ~name:"bench" ~dims:2), None)
  in
  {
    inp;
    env;
    tree;
    inst;
    barrier = { bmu = Mutex.create (); bcv = Condition.create (); waiting = 0; gen = 0 };
    gc_every;
    gc_ns = [];
    gc_freed = 0;
  }

(* Two domains each load one half of the key space in key order (hb: the
   preload points in index order), in explicit transactions, draining the
   completion queue after every commit: explicit transactions leave
   index-term postings queued. Key order keeps the pool-bound preload of
   update-spill from thrashing the pool. *)
let preload ctx bufs =
  let keys = ctx.inp.spec.keys in
  let mgr = Env.txns ctx.env in
  let load (tr : Trace.buf) lo hi =
    let i = ref lo in
    while !i < hi do
      let req = Trace.new_req tr in
      let root = Trace.start tr ~name:Trace.req_preload ~parent:(-1) ~req in
      let txn = Txn_mgr.begin_txn mgr Txn.User in
      let stop = min hi (!i + preload_batch) in
      while !i < stop do
        let k = !i in
        let value = Value.encode ~key:k ~client:0 ~seq:0 in
        (match ctx.tree with
        | Layers.H t -> Hb.insert ~txn t ~point:ctx.inp.points.(k) ~value
        | _ -> Engine.insert ~txn (inst ctx) ~key:(Value.key k) ~value);
        incr i
      done;
      let s = Trace.start tr ~name:Trace.txn_commit ~parent:root ~req in
      Txn_mgr.commit mgr txn;
      Trace.stop tr s;
      let s = Trace.start tr ~name:Trace.env_drain ~parent:root ~req in
      ignore (Env.drain ctx.env : int);
      Trace.stop tr s;
      Trace.stop tr root
    done
  in
  let half = keys / 2 in
  let doms =
    List.map2
      (fun tr (lo, hi) -> spawn (fun () -> load tr lo hi))
      bufs
      [ (0, half); (half, keys) ]
  in
  List.iter Domain.join doms;
  ignore (Env.drain ctx.env : int)

let run_requests cs n f =
  run_clients cs (fun c ->
      for _ = 1 to n do
        guarded c "request" (fun () -> f c)
      done)

(* Environment, tree, preload and warm-up: what [setup_s] times. *)
let setup inp ~gc_every ~bufs ~warm =
  let ctx = new_ctx inp ~gc_every in
  preload ctx bufs;
  ignore (run_requests warm inp.spec.warmup (warm_request ctx) : int);
  ctx

let reopen ctx =
  match ctx.tree with
  | Layers.B _ -> (
      match Blink.open_existing ctx.env ~name:"bench" with
      | Some t ->
          ctx.tree <- Layers.B t;
          ctx.inst <- Some (Blink_engine.inst t)
      | None -> failwith "b-link tree lost")
  | Layers.T _ -> (
      match Tsb.open_existing ctx.env ~name:"bench" with
      | Some t ->
          ctx.tree <- Layers.T t;
          ctx.inst <- Some (Tsb_engine.inst t)
      | None -> failwith "tsb tree lost")
  | Layers.H _ -> (
      match Hb.open_existing ctx.env ~name:"bench" with
      | Some t -> ctx.tree <- Layers.H t
      | None -> failwith "hb tree lost")

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)

let ledger_of ctx cs =
  let keys = ctx.inp.spec.keys in
  let hbw = ctx.inp.spec.kind = Hb_spatial in
  let l =
    Ledger.create ~preloaded:keys
      ~preload_code:(if hbw then Fun.id else fun _ -> Value.code ~client:0 ~seq:0)
  in
  List.iter
    (fun c ->
      for i = 0 to c.wkey.n - 1 do
        Ledger.record l ~key:(Vec.get c.wkey i) ~code:(Vec.get c.wcode i)
          ~start:(Vec.get c.wstart i) ~ack:(Vec.get c.wack i)
      done)
    cs;
  l

(* Every record the store holds, as (ledger key, ledger code); a record
   whose value does not belong to it gets code -1. *)
let store_records ctx cs f =
  match ctx.tree with
  | Layers.B t ->
      Blink.range t ?low:None ?high:None ~init:() ~f:(fun () k v ->
          match Value.key_index k with
          | Some idx -> f ~key:idx ~code:(Value.code_for idx v)
          | None -> f ~key:(-1) ~code:(-1))
  | Layers.T t ->
      Tsb.range_asof t ~time:(Tsb.now t) ?low:None ?high:None ~init:()
        ~f:(fun () k v ->
          match Value.key_index k with
          | Some idx -> f ~key:idx ~code:(Value.code_for idx v)
          | None -> f ~key:(-1) ~code:(-1))
  | Layers.H t ->
      let keys = ctx.inp.spec.keys in
      let point_of id =
        if id >= 0 && id < keys then Some ctx.inp.points.(id)
        else List.find_map (fun c -> Hashtbl.find_opt c.wpoint id) cs
      in
      Hb.query t ~low:[| neg_infinity; neg_infinity |] ~high:[| infinity; infinity |]
        ~init:() ~f:(fun () pt v ->
          match Value.decode v with
          | Some (id, _, _) when point_of id = Some pt -> f ~key:id ~code:id
          | Some (id, _, _) -> f ~key:id ~code:(-1)
          | None -> f ~key:(-1) ~code:(-1))

let check_durable ctx ck cs stage =
  let _, errors = Ledger.check (ledger_of ctx cs) (store_records ctx cs) in
  check ck ("durability " ^ stage) (errors = []) (String.concat "; " errors)

(* The tail writes logged since index [from] must read back as their
   last write: the tail is written by one client, one write at a time. *)
let check_tail ctx ck tail ~from stage =
  let last = Hashtbl.create 1024 in
  for i = from to tail.wkey.n - 1 do
    Hashtbl.replace last (Vec.get tail.wkey i) (Vec.get tail.wcode i)
  done;
  let bad = ref 0 in
  Hashtbl.iter
    (fun key code ->
      let got =
        match ctx.tree with
        | Layers.H t -> if Value.holds key (Hb.find t (Hashtbl.find tail.wpoint key)) then key else -1
        | _ -> (
            match Engine.find (inst ctx) (Value.key key) with
            | Some v -> Value.code_for key v
            | None -> -1)
      in
      if got <> code then incr bad)
    last;
  check ck ("tail writes " ^ stage) (!bad = 0)
    (Printf.sprintf "%d of %d acknowledged tail writes lost" !bad (Hashtbl.length last))

(* Quiesce, checkpoint, run the fixed tail, crash and recover. The last
   cycle verifies the tree and checks every acknowledged write of the
   run; earlier ones check their own tail. *)
let recovery_cycle ctx ck tail cs ~cycle ~last =
  let tr = tail.tr in
  ignore (Env.drain ctx.env : int);
  Env.checkpoint ~mode:`Sharp ctx.env;
  let from = tail.wkey.n in
  for _ = 1 to ctx.inp.spec.tail do
    guarded tail "tail write" (fun () ->
        match ctx.inp.spec.kind with
        | Hb_spatial -> hb_insert ctx tail
        | _ -> autocommit_update ctx tail (Rng.int tail.rng ctx.inp.spec.keys))
  done;
  let req = Trace.new_req tr in
  let root = Trace.start tr ~name:Trace.req_recovery ~parent:(-1) ~req in
  let s = Trace.start tr ~name:Trace.env_crash ~parent:root ~req in
  Env.crash ctx.env;
  Trace.stop tr s;
  let s = Trace.start tr ~name:Trace.env_recover ~parent:root ~req in
  let t0 = Clock.now_ns () in
  let report = Env.recover ctx.env in
  let recover_ns = Clock.now_ns () - t0 in
  Trace.stop tr s;
  Trace.stop tr root;
  reopen ctx;
  let stage = Printf.sprintf "after recovery %d" cycle in
  check_tail ctx ck tail ~from stage;
  if last then begin
    verify ctx ck stage;
    check_durable ctx ck cs stage
  end;
  { Layers.report; recover_ns }

(* ------------------------------------------------------------------ *)
(* A run                                                               *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Layers.metric list;
  stamp : (string * string) list;  (** report fields, as JSON values *)
  errors : string list;
}


let caps spec ~n =
  let p = spec.probe in
  let read = if spec.kind = Si_txn then ro_reads * n else n in
  [| read; n + p; n + p; n + p; n + p |]

let span_cap spec ~n =
  let per_req = if spec.kind = Si_txn then 20 else 2 in
  (per_req * n) + (30 * 3 * spec.probe) + 16

let sum f (cs : client list) = List.fold_left (fun a c -> a + f c) 0 cs

let merged cs cls =
  Array.concat (List.map (fun c -> Array.sub c.lat.(cls) 0 c.nlat.(cls)) cs)

let completed ctx cs =
  match ctx.inp.spec.kind with
  | Si_txn -> sum (fun c -> c.committed) cs
  | _ -> sum (fun c -> c.attempted - c.failed) cs

(* One slice of the measured phase: the wall time and completed requests
   of its mix, whether it was traced, and where each client's latency
   arrays stood at its start and after its probe burst. *)
type slice = {
  elapsed : int;
  done_ : int;
  traced : bool;
  marks : (int array * int array) list;
}

type phase_out = {
  slices : slice list;
  before : Layers.reading;
  after : Layers.reading;
  layer_phase : Layers.phase;
  user_bytes : int;
}

(* The measured phase: [n] mix requests per client in [nslices] slices.
   Untraced, each slice's mix is followed by a burst of the probe classes
   (the classes the mix lacks), so probe samples come from several
   moments of the run. Traced, there are no probes and the slices
   alternate between untraced and traced on the same tree, so that the
   tracing overhead is measured under the same conditions; the layer
   readings then cover the mix requests alone. *)
let measured ctx cs ~n ~nslices ~trace =
  let spec = ctx.inp.spec in
  let classes = probe_classes spec.kind in
  let before = Layers.read ctx.env ctx.tree in
  let out = ref None and slices = ref [] and tried = ref 0 in
  for k = 1 to nslices do
    let traced = trace && k mod 2 = 0 in
    List.iter (fun c -> Trace.set_enabled c.tr traced) cs;
    let m0 = List.map (fun c -> Array.copy c.nlat) cs in
    let d0 = completed ctx cs and a0 = sum (fun c -> c.attempted) cs in
    let elapsed = run_requests cs (n / nslices) (step ctx) in
    let done_ = completed ctx cs - d0 in
    tried := !tried + sum (fun c -> c.attempted) cs - a0;
    if k = nslices then
      out :=
        Some
          ( Layers.read ctx.env ctx.tree,
            {
              Layers.ops = !tried;
              drain_ns = Array.of_list (List.concat_map (fun c -> c.drains) cs);
              mvcc_commit_ns = Array.of_list (List.concat_map (fun c -> c.commits) cs);
              gc_ns = Array.of_list ctx.gc_ns;
              gc_freed = ctx.gc_freed;
              free_list_pages = Env.free_list_length ctx.env;
            },
            sum (fun c -> c.user_bytes) cs );
    if not trace then
      ignore
        (run_clients cs (fun c ->
             for _ = 1 to spec.probe / nslices do
               List.iter (fun cls -> guarded c "probe" (fun () -> probe_request ctx c cls)) classes
             done)
          : int);
    let m1 = List.map (fun c -> Array.copy c.nlat) cs in
    slices := { elapsed; done_; traced; marks = List.combine m0 m1 } :: !slices
  done;
  List.iter (fun c -> Trace.set_enabled c.tr trace) cs;
  let after, layer_phase, user_bytes = Option.get !out in
  { slices = List.rev !slices; before; after; layer_phase; user_bytes }

let slice_samples cs ch cls =
  Array.concat
    (List.map2 (fun c (m0, m1) -> Array.sub c.lat.(cls) m0.(cls) (m1.(cls) - m0.(cls))) cs ch.marks)

let pct_us samples p =
  if Array.length samples = 0 then 0. else Layers.us (Pct.nearest_rank (Pct.sorted samples) ~pct:p)

(* The median over slices of each slice's percentile, so that a burst of
   noise confined to one slice does not move it. *)
let latency cs (po : phase_out) cls p =
  Pct.median (Array.of_list (List.map (fun ch -> pct_us (slice_samples cs ch cls) p) po.slices))

let slice_rate ch = float_of_int ch.done_ /. (float_of_int ch.elapsed /. 1e9)

(* Completed requests per second: the median over the (un)traced slices. *)
let ops_per_s ?(traced = false) po =
  Pct.median
    (Array.of_list
       (List.filter_map (fun ch -> if ch.traced = traced then Some (slice_rate ch) else None) po.slices))

let run ?(out_dir = ".pibench_out") ?(commit = "unknown") (spec : spec) ~seed ~seconds ~trace =
  (* Requests per client, a whole number of slices; si-txn runs one gc
     pass per slice. *)
  let nslices = if trace then 2 * spec.slices else spec.slices in
  let per_slice = max 1 (spec.ops_per_second * seconds / clients / nslices) in
  let n = per_slice * nslices in
  let gc_every = per_slice in
  let inp = make_inputs spec ~seed in
  let ck = { run = 0; failures = [] } in
  let warm_clients () =
    List.init clients (fun i ->
        let c = new_client ~id:(i + 1) ~seed:(seed + 1) ~trace:false ~caps:(Array.make 5 0) ~span_cap:0 in
        c.recording <- false;
        c)
  in
  let preload_bufs ~trace =
    List.init 2 (fun i -> Trace.create ~on:trace ~owner:(10 + i) ~cap:((spec.keys / preload_batch) + 4))
  in
  let extra_clients = ref [] in
  let origin = Clock.now_ns () in
  let bufs = preload_bufs ~trace in
  let setups = if trace then 1 else spec.setups in
  let setup_times = Array.make setups 0. in
  let ctx = ref None in
  for i = 0 to setups - 1 do
    (* Drop the previous setup first, so its memory can be reclaimed. *)
    ctx := None;
    let warm = warm_clients () in
    let t0 = Clock.now_ns () in
    let c = setup inp ~gc_every ~bufs ~warm in
    setup_times.(i) <- float_of_int (Clock.now_ns () - t0) /. 1e9;
    extra_clients := warm @ !extra_clients;
    ctx := Some c
  done;
  let ctx = Option.get !ctx in
  let t_setups = Clock.now_ns () in
  verify ctx ck "after setup";
  let cs =
    List.init clients (fun i ->
        new_client ~id:(i + 1) ~seed ~trace ~caps:(caps spec ~n) ~span_cap:(span_cap spec ~n))
  in
  let po = measured ctx cs ~n ~nslices ~trace in
  let untraced_rate = ops_per_s po in
  let measured_attempted = po.layer_phase.ops in
  let classes = probe_classes spec.kind in
  let t_measured = Clock.now_ns () in
  let live_bytes =
    match spec.kind with
    | Hb_spatial -> (spec.keys + sum (fun c -> Hashtbl.length c.wpoint) cs) * (16 + Value.len)
    | _ -> spec.keys * (Value.key_len + Value.len)
  in
  let space_amp =
    float_of_int (Env.allocated_extent ctx.env * page_size) /. float_of_int live_bytes
  in
  let write_amp =
    float_of_int
      (po.after.wal.bytes - po.before.wal.bytes
      + ((po.after.pool.flushes - po.before.pool.flushes) * page_size))
    /. float_of_int (max 1 po.user_bytes)
  in
  let tail = new_client ~id:3 ~seed ~trace ~caps:(caps spec ~n:0) ~span_cap:(spec.tail * 3 * spec.recover_cycles + 64) in
  tail.recording <- false;
  let recoveries =
    List.init spec.recover_cycles (fun i ->
        try
          Some
            (recovery_cycle ctx ck tail (tail :: cs) ~cycle:(i + 1)
               ~last:(i = spec.recover_cycles - 1))
        with e ->
          check ck (Printf.sprintf "recovery %d" (i + 1)) false (Printexc.to_string e);
          None)
    |> List.filter_map Fun.id
  in
  let t_recovery = Clock.now_ns () in
  let all = (tail :: cs) @ !extra_clients in
  let attempted = sum (fun c -> c.attempted) all + ck.run in
  let failed = sum (fun c -> c.failed) all + List.length ck.failures in
  let lat_us cls p = latency cs po cls p in
  let e2e =
    [
      ("setup_s", "s", Pct.median setup_times);
      ("ops_per_s", "1/s", untraced_rate);
      ("read_p50_us", "us", lat_us c_read 50);
      ("read_p90_us", "us", lat_us c_read 90);
      ("update_p50_us", "us", lat_us c_update 50);
      ("update_p90_us", "us", lat_us c_update 90);
      ("scan_p50_us", "us", lat_us c_scan 50);
      ("scan_p90_us", "us", lat_us c_scan 90);
      ("ro_txn_p50_us", "us", lat_us c_ro 50);
      ("ro_txn_p90_us", "us", lat_us c_ro 90);
      ("rw_txn_p50_us", "us", lat_us c_rw 50);
      ("rw_txn_p90_us", "us", lat_us c_rw 90);
      ( "recover_s", "s",
        match recoveries with
        | [] -> 0.
        | l -> Pct.median (Array.of_list (List.map (fun r -> float_of_int r.Layers.recover_ns /. 1e9) l)) );
      ("space_amp", "ratio", space_amp);
      ("write_amp", "ratio", write_amp);
      ("ok_op_pct", "%", 100. *. Pct.ratio_i (attempted - failed) attempted);
    ]
  in
  let trace_bufs = bufs @ List.map (fun c -> c.tr) (cs @ [ tail ]) in
  let metrics =
    if not trace then e2e
    else begin
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      Trace.write_file
        (Filename.concat out_dir (Printf.sprintf "spans-%s.tsv" spec.name))
        ~header:[ Printf.sprintf "workload=%s seed=%d seconds=%d" spec.name seed seconds ]
        ~origin trace_bufs;
      Layers.metrics ~before:po.before ~after:po.after po.layer_phase ~recoveries
      @ [
          ( "trace.overhead_pct", "%",
            100. *. Pct.ratio (untraced_rate -. ops_per_s ~traced:true po) untraced_rate );
          ("trace.spans", "count", float_of_int (Trace.count trace_bufs));
        ]
    end
  in
  let samples =
    String.concat ", "
      (Array.to_list
         (Array.mapi (fun i nm -> Printf.sprintf "%s: %d" (json_str nm) (Array.length (merged cs i))) class_names))
  in
  let errors =
    List.rev ck.failures @ List.concat_map (fun (c : client) -> List.rev c.errors) all
  in
  let stamp =
    [
      ("workload", json_str spec.name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("clients", string_of_int clients);
      ("commit", json_str commit);
      ("ocaml", json_str Sys.ocaml_version);
      ( "gc",
        let g = Gc.get () in
        Printf.sprintf "{\"minor_heap_words\": %d, \"space_overhead\": %d}" g.minor_heap_size
          g.space_overhead );
      ("config", config_json inp.cfg);
      ("keys", string_of_int spec.keys);
      ("measured_requests", string_of_int measured_attempted);
      ( "measured_s",
        Printf.sprintf "%.6f"
          (float_of_int (List.fold_left (fun a ch -> a + ch.elapsed) 0 po.slices) /. 1e9) );
      ( "slice_ops_per_s",
        Printf.sprintf "[%s]"
          (String.concat ", "
             (List.map
                (fun ch -> Printf.sprintf "%.1f" (slice_rate ch))
                po.slices)) );
      ("probe_classes", Printf.sprintf "[%s]" (String.concat ", " (List.map (fun i -> json_str class_names.(i)) classes)));
      ("samples", "{" ^ samples ^ "}");
      ( "tails_us",
        (* p95 and p99 per class, as the end-to-end percentiles are taken
           (median over slices); reported here, not as metrics, because
           host CPU steal moves them by more than any bound *)
        "{"
        ^ String.concat ", "
            (Array.to_list
               (Array.mapi
                  (fun cls nm ->
                    Printf.sprintf "%s: {\"p95\": %.3f, \"p99\": %.3f}" (json_str nm)
                      (lat_us cls 95) (lat_us cls 99))
                  class_names))
        ^ "}" );
      ( "stage_s",
        let sec a b = float_of_int (b - a) /. 1e9 in
        Printf.sprintf "{\"setups\": %.3f, \"measured_and_probe\": %.3f, \"recovery_cycles\": %.3f}"
          (sec origin t_setups) (sec t_setups t_measured) (sec t_measured t_recovery) );
      ("setup_s_each", Printf.sprintf "[%s]" (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.6f") setup_times))));
      ("si_committed", string_of_int (sum (fun c -> c.committed) cs));
      ("si_aborts", string_of_int (sum (fun c -> c.aborts) cs));
      ("deadlock_retries", string_of_int (sum (fun c -> c.retries) all));
      ("gc_passes", string_of_int (List.length ctx.gc_ns));
      ("checks", string_of_int ck.run);
      ("errors", Printf.sprintf "[%s]" (String.concat ", " (List.map json_str errors)));
    ]
  in
  { correct = failed = 0; attempted; failed; metrics; stamp; errors }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name) (json_number v)
              (json_str unit))
          r.metrics))

let stamp_json r =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) r.stamp)
  ^ "}"
