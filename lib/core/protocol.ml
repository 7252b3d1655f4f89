module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Olc = Pitree_storage.Olc
module Latch = Pitree_sync.Latch
module Latch_order = Pitree_sync.Latch_order
module Version = Pitree_sync.Version
module Page_op = Pitree_wal.Page_op
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Atomic_action = Pitree_txn.Atomic_action
module Lock_manager = Pitree_lock.Lock_manager
module Lock_mode = Pitree_lock.Lock_mode
module Env = Pitree_env.Env

type route = Here | Side of int | Child of int

module type SPACE = sig
  type key

  val route : Page.t -> key -> route
end

(* ---------- rank-checked latching (section 4.1.1) ---------- *)

(* Parents (higher levels) rank before children. *)
let rank p = 255 - Page.level p

let latch (fr : Buffer_pool.frame) m =
  Latch.acquire fr.latch m;
  Latch_order.acquired (rank fr.page)

let unlatch (fr : Buffer_pool.frame) m =
  Latch_order.released (rank fr.page);
  Latch.release fr.latch m

let unlatch_at rank0 (fr : Buffer_pool.frame) m =
  Latch_order.released rank0;
  Latch.release fr.latch m

let promote (fr : Buffer_pool.frame) =
  Latch_order.promoting (rank fr.page);
  Latch.promote fr.latch

(* ---------- the completion queue (section 5.1) ---------- *)

module Completion = struct
  type job = Post of int | Consolidate of int
  type t = { pending : (job, unit) Hashtbl.t; mu : Mutex.t }

  let create () = { pending = Hashtbl.create 16; mu = Mutex.create () }

  (* Dedup is purely an optimization: every completing action re-tests
     the tree state anyway. The entry is dropped just before the task
     runs, so a state the task leaves incomplete can be rescheduled. *)
  let schedule q env job task =
    Mutex.lock q.mu;
    let fresh = not (Hashtbl.mem q.pending job) in
    if fresh then Hashtbl.replace q.pending job ();
    Mutex.unlock q.mu;
    if fresh then
      Env.schedule env (fun () ->
          Mutex.lock q.mu;
          Hashtbl.remove q.pending job;
          Mutex.unlock q.mu;
          task ());
    fresh

  let pending_posts q =
    Mutex.lock q.mu;
    let n =
      Hashtbl.fold
        (fun job () n -> match job with Post _ -> n + 1 | Consolidate _ -> n)
        q.pending 0
    in
    Mutex.unlock q.mu;
    n
end

type counters = {
  side_traversals : int Atomic.t;
  descents : int Atomic.t;
  postings_scheduled : int Atomic.t;
  postings_completed : int Atomic.t;
  postings_noop : int Atomic.t;
  path_reuse_hits : int Atomic.t;
  full_retraversals : int Atomic.t;
  olc_restarts : int Atomic.t;
  olc_fallbacks : int Atomic.t;
}

let reset_counters c =
  List.iter
    (fun a -> Atomic.set a 0)
    [
      c.side_traversals; c.descents; c.postings_scheduled; c.postings_completed;
      c.postings_noop; c.path_reuse_hits; c.full_retraversals; c.olc_restarts;
      c.olc_fallbacks;
    ]

module type S = sig
  type key
  type t

  val create : Env.t -> root:int -> cp:bool -> t

  val set_post :
    t -> (level:int -> path:Saved_path.t -> address:int -> key:key -> unit) -> unit

  val counters : t -> counters
  val hand_over : t -> Buffer_pool.frame -> Latch.mode -> Buffer_pool.frame -> unit

  val descend :
    t -> key:key -> target:int -> mode:Latch.mode -> Saved_path.t * Buffer_pool.frame

  val search : t -> key:key -> level:int -> path:Saved_path.t -> Buffer_pool.frame
  val olc_descend : t -> key:key -> Buffer_pool.frame * int
  val olc_protect : t -> attempt:(unit -> 'a) -> fallback:(unit -> 'a) -> 'a

  val schedule_posting :
    t -> level:int -> container:int -> sibling:int -> path:Saved_path.t -> key:key -> unit

  val schedule_consolidation : t -> pid:int -> (unit -> unit) -> unit
  val pending_postings : t -> int
end

module Make (Sp : SPACE) = struct
  type key = Sp.key

  type t = {
    env : Env.t;
    root : int;
    cp : bool;
    c : counters;
    queue : Completion.t;
    (* A permanently pinned root frame for latch-free descents: pinned
       frames are never evicted, so optimistic readers skip the root's
       shard mutex (the hottest pin in the tree). Keyed by pool identity:
       recovery replaces the pool object, invalidating the cache. *)
    root_cache : (Buffer_pool.t * Buffer_pool.frame) option Atomic.t;
    (* The engine's posting body, run by the completion queue. *)
    mutable post : level:int -> path:Saved_path.t -> address:int -> key:key -> unit;
  }

  let create env ~root ~cp =
    let z () = Atomic.make 0 in
    {
      env;
      root;
      cp;
      c =
        {
          side_traversals = z (); descents = z (); postings_scheduled = z ();
          postings_completed = z (); postings_noop = z (); path_reuse_hits = z ();
          full_retraversals = z (); olc_restarts = z (); olc_fallbacks = z ();
        };
      queue = Completion.create ();
      root_cache = Atomic.make None;
      post = (fun ~level:_ ~path:_ ~address:_ ~key:_ -> ());
    }

  let set_post t f = t.post <- f
  let counters t = t.c
  let pin t pid = Buffer_pool.pin (Env.pool t.env) pid
  let unpin t fr = Buffer_pool.unpin (Env.pool t.env) fr

  (* Move from [fr], latched in [m], to the pinned [nfr]. Under CP the
     two latches couple, so [nfr] cannot be de-allocated while the
     pointer to it is de-referenced (section 5.2.2); under CNS nodes are
     immortal and one latch at a time suffices. *)
  let hand_over_to t fr m nfr nm =
    if t.cp then begin
      latch nfr nm;
      unlatch fr m;
      unpin t fr
    end
    else begin
      unlatch fr m;
      unpin t fr;
      latch nfr nm
    end

  let hand_over t fr m nfr = hand_over_to t fr m nfr m

  (* ---------- completion scheduling (section 5.1) ---------- *)

  (* A move lock on the split node means the split's transaction has not
     committed: its index term must not be posted (section 4.2.2). *)
  let move_locked t pid =
    (Env.config t.env).Env.page_oriented_undo
    && List.exists
         (fun (_, m) -> m = Lock_mode.Move || m = Lock_mode.X)
         (Lock_manager.holders (Env.locks t.env)
            (Lock_manager.Node { tree = t.root; page = pid }))

  (* A traversal at [level] followed [container]'s sibling term to
     [sibling] looking for [key]: the sibling's index term may be missing
     one level up. [path] holds the nodes above [level] traversed. *)
  let schedule_posting t ~level ~container ~sibling ~path ~key =
    if
      (not (move_locked t container))
      && Completion.schedule t.queue t.env (Completion.Post sibling) (fun () ->
             t.post ~level:(level + 1) ~path ~address:sibling ~key)
    then Atomic.incr t.c.postings_scheduled

  let schedule_consolidation t ~pid task =
    if t.cp && pid <> t.root then
      ignore (Completion.schedule t.queue t.env (Completion.Consolidate pid) task : bool)

  let pending_postings t = Completion.pending_posts t.queue

  (* ---------- latched descent ---------- *)

  (* From [fr] (latched: S above [target], [mode] at [target]) to the
     node at [target] whose directly-contained space includes [key],
     side-stepping along sibling terms. Returns the saved path of the
     levels above [target] and the latched frame. *)
  let rec descend_from t ~key ~target ~mode fr path =
    let p = fr.Buffer_pool.page in
    let level = Page.level p in
    let m = if level > target then Latch.S else mode in
    match Sp.route p key with
    | Side sib ->
        Atomic.incr t.c.side_traversals;
        assert (sib <> Page.nil);
        schedule_posting t ~level ~container:(Page.id p) ~sibling:sib ~path ~key;
        let sfr = pin t sib in
        hand_over t fr m sfr;
        descend_from t ~key ~target ~mode sfr path
    | _ when level = target -> (path, fr)
    | Here -> assert false (* an index node routes every key it contains *)
    | Child child ->
        let path = Saved_path.push path ~pid:(Page.id p) ~level ~state_id:(Page.lsn p) in
        let cfr = pin t child in
        hand_over_to t fr m cfr (if level - 1 > target then Latch.S else mode);
        descend_from t ~key ~target ~mode cfr path

  (* Latch the root in the right mode for its current level and descend;
     retry if the root grew between the unlatched peek and the latch. *)
  let rec descend t ~key ~target ~mode =
    if target = 0 then Atomic.incr t.c.descents;
    let fr = pin t t.root in
    let above = Page.level fr.Buffer_pool.page > target in
    let m = if above then Latch.S else mode in
    latch fr m;
    if Page.level fr.Buffer_pool.page > target <> above then begin
      unlatch fr m;
      unpin t fr;
      descend t ~key ~target ~mode
    end
    else descend_from t ~key ~target ~mode fr Saved_path.empty

  (* Reach the node at [level] whose directly-contained space includes
     [key], U-latched, re-entering at the nearest usable node of the
     saved path (section 5.2) and from the root otherwise. *)
  let search t ~key ~level ~path =
    let candidates =
      List.filter (fun e -> e.Saved_path.level >= level) path
      |> List.sort (fun a b -> compare a.Saved_path.level b.Saved_path.level)
    in
    let rec try_candidates = function
      | [] ->
          Atomic.incr t.c.full_retraversals;
          snd (descend t ~key ~target:level ~mode:Latch.U)
      | e :: rest -> (
          match pin t e.Saved_path.pid with
          | exception Not_found -> try_candidates rest
          | fr
            when t.cp
                 && (let w = Version.peek (Latch.version fr.Buffer_pool.latch) in
                     (not (Version.is_locked w)) && not (Saved_path.matches e ~version:w))
            ->
              (* Latch-free rejection: an even version word that disagrees
                 with the state identifier proves the node changed. *)
              unpin t fr;
              try_candidates rest
          | fr ->
              let m = if e.Saved_path.level = level then Latch.U else Latch.S in
              latch fr m;
              let p = fr.Buffer_pool.page in
              let usable =
                if t.cp then
                  (* De-allocation is a node update: an unchanged state
                     identifier proves the node is still the one we saw
                     (section 5.2.2 strategy (b)). *)
                  Page.lsn p = e.Saved_path.state_id
                else
                  (* CNS: any index node at the right level can be
                     re-searched. *)
                  Page.kind p = Page.Index && Page.level p = e.Saved_path.level
              in
              if usable then begin
                Atomic.incr t.c.path_reuse_hits;
                snd (descend_from t ~key ~target:level ~mode:Latch.U fr Saved_path.empty)
              end
              else begin
                unlatch fr m;
                unpin t fr;
                try_candidates rest
              end)
    in
    try_candidates candidates

  (* ---------- optimistic (latch-free) descent ----------

     Each node's frame latch carries a version word (twice the page LSN
     when quiescent, odd while a writer holds X; see Pitree_sync.Version).
     A reader snapshots the word, routes, and proves the word unchanged
     before acting on anything it read; a failed proof raises
     [Olc.Restart] and [olc_protect] retries from the root, falling back
     to the latched descent after [Olc.max_restarts] failures.

     A node reached through a validated pointer can still be
     de-allocated before the reader pins it: de-allocation is a node
     update that bumps the victim's word, but the reader holds no latch
     to block it. So after pinning the next node the reader re-validates
     the node the pointer came from; unchanged means the pointer still
     stood after the pin, and a pinned frame cannot be recycled. *)

  (* The cached root frame, installed on first use. The CAS race is
     benign: the loser drops the extra pin it took for the cache. *)
  let pin_root t =
    let pl = Env.pool t.env in
    match Atomic.get t.root_cache with
    | Some (p, fr) when p == pl ->
        Buffer_pool.repin pl fr;
        fr
    | stale ->
        let fr = pin t t.root in
        Buffer_pool.repin pl fr (* the cache's own, permanent pin *);
        if not (Atomic.compare_and_set t.root_cache stale (Some (pl, fr))) then
          unpin t fr;
        fr

  (* Owns [fr]'s pin: every exit, including every raise, drops every pin
     this descent still holds. Returns the leaf pinned (never latched)
     with a validated snapshot of its version word. *)
  let rec olc_step t ~key fr =
    match
      let v = Olc.snapshot fr in
      let p = fr.Buffer_pool.page in
      (* A stale pointer can land on a freed page: restart rather than
         decode free-list bytes as a node. *)
      Olc.live p;
      (* Routing parses unvalidated bytes: a decode blow-up restarts only
         when the version word proves them torn. *)
      Olc.decoding fr v @@ fun () ->
      (* Read everything the next step acts on (the root's level can
         change in place) before the validation that proves it untorn. *)
      let level = Page.level p in
      match Sp.route p key with
      | Here ->
          if level <> 0 then raise Olc.Restart;
          Olc.validate fr v;
          `Leaf v
      | Side sib ->
          Olc.validate fr v;
          if sib = Page.nil then raise Olc.Restart;
          `Next (v, sib, level)
      | Child child ->
          Olc.validate fr v;
          `Next (v, child, -1)
    with
    | exception e ->
        unpin t fr;
        raise e
    | `Leaf v -> (fr, v)
    | `Next (v, next, side_level) -> (
        let nfr =
          match pin t next with
          | nfr -> nfr
          | exception e ->
              unpin t fr;
              raise e
        in
        match Olc.validate fr v with
        | exception e ->
            unpin t nfr;
            unpin t fr;
            raise e
        | () ->
            if side_level >= 0 then begin
              Atomic.incr t.c.side_traversals;
              (* Only validated side chases get here, so the queue never
                 sees a pid or level from a torn read. *)
              schedule_posting t ~level:side_level ~container:fr.Buffer_pool.pid
                ~sibling:next ~path:Saved_path.empty ~key
            end;
            unpin t fr;
            olc_step t ~key nfr)

  let olc_descend t ~key = olc_step t ~key (pin_root t)

  let olc_protect t ~attempt ~fallback =
    Olc.protect ~restarts:t.c.olc_restarts ~fallbacks:t.c.olc_fallbacks ~attempt
      ~fallback ()
end

(* ---------- interval spaces: B-link and TSB ---------- *)

module type INTERVAL = sig
  val contains : Page.t -> string -> bool
  val floor_entry : Page.t -> string -> int option
  val index_term : Page.t -> int -> string * int
  val find_child_term : Page.t -> int -> int option
  val find : Page.t -> string -> [ `Found of int | `Not_found of int ]
  val index_term_cell : sep:string -> child:int -> string
  val slot_of_entry : int -> int
  val fence_high : Page.t -> string option
  val posted_sep : string -> string
  val hit : [ `Latched | `Updated | `Done ] -> unit
end

module Interval (C : INTERVAL) = struct
  type key = string

  let route p key =
    if not (C.contains p key) then Side (Page.side_ptr p)
    else if Page.level p = 0 then Here
    else
      match C.floor_entry p key with
      | Some i -> Child (snd (C.index_term p i))
      | None -> raise Olc.Restart (* torn: index nodes have a least separator *)
end

module Make_interval (C : INTERVAL) = struct
  include Make (Interval (C))

  (* Space Test (section 5.3 step 3): make room in the X-latched [fr] for
     [need] bytes at [poskey], splitting (or growing the root) as needed.
     Returns the X-latched frame whose space contains [poskey]. *)
  let rec ensure_space t txn fr ~split ~grow ~poskey ~need ~on_split =
    let p = fr.Buffer_pool.page in
    let continue_in nfr = ensure_space t txn nfr ~split ~grow ~poskey ~need ~on_split in
    if Page.will_fit p (need + Page.slot_overhead) then fr
    else if Page.id p = t.root then begin
      let rank0 = rank p in
      let l, sep, r = grow txn fr ~pending:poskey in
      let nfr = pin t (if String.compare poskey sep < 0 then l else r) in
      latch nfr Latch.X;
      unlatch_at rank0 fr Latch.X;
      unpin t fr;
      continue_in nfr
    end
    else begin
      let sep, q = split txn fr ~pending:poskey in
      on_split (Page.id p, sep, q);
      if String.compare poskey sep < 0 then continue_in fr
      else begin
        let qfr = pin t q in
        latch qfr Latch.X;
        unlatch fr Latch.X;
        unpin t fr;
        continue_in qfr
      end
    end

  (* The index-term posting action (section 5.3): Search, Verify Split,
     Space Test, Update — one atomic action that re-tests the tree state,
     so running it twice, or after the split was consolidated away, is a
     no-op (section 5.1). *)
  let post t ~split ~grow ~level ~path ~address ~key =
    let finished = ref false and deferred = ref [] in
    Atomic_action.run (Env.txns t.env) (fun txn ->
        let fr = search t ~key ~level ~path in
        let p = fr.Buffer_pool.page in
        let noop () =
          unlatch fr Latch.U;
          unpin t fr;
          Atomic.incr t.c.postings_noop
        in
        let routed =
          if C.find_child_term p address <> None then None (* already posted *)
          else C.floor_entry p key
        in
        match routed with
        | None -> noop ()
        | Some i -> (
            (* Verify Split: the child the key routes to must still
               delegate the key's space to a sibling; that sibling (it may
               differ from [address] if splits raced us) is the node whose
               term we post. *)
            let cfr = pin t (snd (C.index_term p i)) in
            latch cfr Latch.S;
            let cp = cfr.Buffer_pool.page in
            let merged = C.contains cp key in
            let sib = Page.side_ptr cp and high = C.fence_high cp in
            unlatch cfr Latch.S;
            unpin t cfr;
            match high with
            | Some sep when (not merged) && C.find_child_term p sib = None ->
                promote fr;
                C.hit `Latched;
                let sep = C.posted_sep sep in
                let cell = C.index_term_cell ~sep ~child:sib in
                (* Splits made by the space test post their own terms once
                   this action has committed (section 3.2.1 step 6). *)
                let fr =
                  ensure_space t txn fr ~split ~grow ~poskey:sep ~need:(String.length cell)
                    ~on_split:(fun s -> deferred := s :: !deferred)
                in
                (match C.find fr.Buffer_pool.page sep with
                | `Found _ -> Atomic.incr t.c.postings_noop
                | `Not_found j ->
                    ignore
                      (Txn_mgr.update (Env.txns t.env) txn fr
                         (Page_op.Insert_slot { slot = C.slot_of_entry j; cell }));
                    finished := true);
                C.hit `Updated;
                unlatch fr Latch.X;
                unpin t fr
            | _ -> noop ()));
    if !finished then Atomic.incr t.c.postings_completed;
    List.iter
      (fun (container, sep, sibling) ->
        schedule_posting t ~level ~container ~sibling ~path:(Saved_path.above path level)
          ~key:sep)
      !deferred;
    C.hit `Done
end
