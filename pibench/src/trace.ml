(* Spans the benchmark records around its own calls into the library.

   Each domain owns one preallocated buffer, so recording takes no lock
   and allocates nothing. A span has a name, a start and an end (monotonic
   ns), the span that caused it (an index into the same buffer, or -1) and
   a request id shared by every span of one request. With tracing off,
   [start] returns -1 and [stop] ignores it. Buffers are written out once,
   when the run ends. *)

module Clock = Pitree_sync.Clock

let names =
  [|
    "req.ro_txn"; "req.rw_txn"; "req.maintenance"; "req.preload"; "req.recovery";
    "Engine.find"; "Engine.insert"; "Engine.scan"; "Tsb.range_asof"; "Hb.find"; "Hb.insert";
    "Hb.query"; "Mvcc.begin_snapshot"; "Mvcc.commit";
    "Txn_mgr.commit"; "Env.drain"; "Env.checkpoint"; "Tsb.gc"; "Env.crash";
    "Env.recover";
  |]

let id_of name =
  let rec go i =
    if i >= Array.length names then invalid_arg ("Trace: unknown span " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let req_ro_txn = id_of "req.ro_txn"
let req_rw_txn = id_of "req.rw_txn"
let req_maintenance = id_of "req.maintenance"
let req_preload = id_of "req.preload"
let req_recovery = id_of "req.recovery"
let engine_find = id_of "Engine.find"
let engine_insert = id_of "Engine.insert"
let engine_scan = id_of "Engine.scan"
let tsb_range = id_of "Tsb.range_asof"
let hb_find = id_of "Hb.find"
let hb_insert = id_of "Hb.insert"
let hb_query = id_of "Hb.query"
let mvcc_begin = id_of "Mvcc.begin_snapshot"
let mvcc_commit = id_of "Mvcc.commit"
let txn_commit = id_of "Txn_mgr.commit"
let env_drain = id_of "Env.drain"
let env_checkpoint = id_of "Env.checkpoint"
let tsb_gc = id_of "Tsb.gc"
let env_crash = id_of "Env.crash"
let env_recover = id_of "Env.recover"

type buf = {
  mutable enabled : bool;
  owner : int;  (** domain slot, for globally unique span ids *)
  mutable n : int;
  mutable dropped : int;
  mutable next_req : int;
  parent : int array;
  req : int array;
  name : int array;
  t0 : int array;
  t1 : int array;
}

let create ~on ~owner ~cap =
  let cap = if on then cap else 0 in
  {
    enabled = on;
    owner;
    n = 0;
    dropped = 0;
    next_req = 0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    name = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
  }

(* A fresh request id, unique within the buffer (and, printed with the
   buffer's owner, across buffers). *)
let new_req b =
  let r = b.next_req in
  b.next_req <- r + 1;
  r

let start b ~name ~parent ~req =
  if not b.enabled then -1
  else if b.n >= Array.length b.t0 then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let i = b.n in
    b.n <- i + 1;
    b.parent.(i) <- parent;
    b.req.(i) <- req;
    b.name.(i) <- name;
    b.t1.(i) <- -1;
    b.t0.(i) <- Clock.now_ns ();
    i
  end

let stop b i = if i >= 0 then b.t1.(i) <- Clock.now_ns ()

(* Pause or resume recording into a buffer created with [~on:true]. *)
let set_enabled b on = b.enabled <- on && Array.length b.t0 > 0

let count bufs = List.fold_left (fun a b -> a + b.n) 0 bufs
let dropped bufs = List.fold_left (fun a b -> a + b.dropped) 0 bufs

type summary = { sname : string; spans : int; total_ns : int; self_ns : int }

(* Per span name: count, total time, and self time (duration minus the
   time its child spans cover; children of one span never overlap, since
   a domain records them one after another). *)
let summarize bufs =
  let k = Array.length names in
  let cnt = Array.make k 0 and tot = Array.make k 0 and self = Array.make k 0 in
  List.iter
    (fun b ->
      let child = Array.make b.n 0 in
      for i = 0 to b.n - 1 do
        if b.t1.(i) >= 0 && b.parent.(i) >= 0 then
          child.(b.parent.(i)) <- child.(b.parent.(i)) + (b.t1.(i) - b.t0.(i))
      done;
      for i = 0 to b.n - 1 do
        if b.t1.(i) >= 0 then begin
          let nm = b.name.(i) and d = b.t1.(i) - b.t0.(i) in
          cnt.(nm) <- cnt.(nm) + 1;
          tot.(nm) <- tot.(nm) + d;
          self.(nm) <- self.(nm) + (d - child.(i))
        end
      done)
    bufs;
  List.filter_map
    (fun i ->
      if cnt.(i) = 0 then None
      else Some { sname = names.(i); spans = cnt.(i); total_ns = tot.(i); self_ns = self.(i) })
    (List.init k Fun.id)

(* One header block with the per-name summary, then one line per span:
   id, parent id (or -), request id, name, start and end in ns from
   [origin]. Ids are "domain.index"; a request's spans share its id. A
   request that makes one call into the library has that call's span
   only. *)
let write_file path ~header ~origin bufs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter (fun l -> Printf.fprintf oc "# %s\n" l) header;
  Printf.fprintf oc "# spans %d, dropped for lack of buffer space %d\n" (count bufs) (dropped bufs);
  Printf.fprintf oc "# name\tspans\ttotal_us\tself_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "# %s\t%d\t%.1f\t%.1f\n" s.sname s.spans
        (float_of_int s.total_ns /. 1e3)
        (float_of_int s.self_ns /. 1e3))
    (summarize bufs);
  Printf.fprintf oc "id\tparent\treq\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc "%d.%d\t%s\t%d.%d\t%s\t%d\t%d\n" b.owner i
          (if b.parent.(i) < 0 then "-" else Printf.sprintf "%d.%d" b.owner b.parent.(i))
          b.owner b.req.(i) names.(b.name.(i))
          (b.t0.(i) - origin)
          (if b.t1.(i) < 0 then -1 else b.t1.(i) - origin)
      done)
    bufs
