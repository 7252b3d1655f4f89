(** The Π-tree concurrency and recovery protocol, once for every node
    space (paper sections 4-5).

    An engine supplies a routing step for its node space — where a key
    goes from one node: {!Here}, across a sibling term ({!Side}) or down
    an index term ({!Child}) — and the body of its index-term posting
    action. {!Make} then owns what every Π-tree shares: the latched
    descent with side-stepping and saved paths, the optimistic
    (latch-free) descent, and the deduplicated completion queue that
    schedules postings and consolidations when a traversal finds a
    structure change unfinished. {!Make_interval} adds the §5.3 posting
    action for spaces of key intervals (B-link and TSB nodes).

    Latch coupling follows the tree's invariant (section 5.2): under CP
    (nodes can be de-allocated) a traversal latches the next node before
    releasing the current one; under CNS (nodes are immortal) it holds
    one latch at a time. Every latch is rank-checked through
    {!Pitree_sync.Latch_order}. *)

module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Latch = Pitree_sync.Latch
module Txn = Pitree_txn.Txn
module Env = Pitree_env.Env

type route =
  | Here  (** the node directly contains the key, and is a leaf *)
  | Side of int  (** the key's space is delegated to this sibling *)
  | Child of int  (** the node directly contains the key; descend here *)

module type SPACE = sig
  type key

  val route : Page.t -> key -> route
  (** Pure over the page bytes. May raise on bytes a latch-free reader
      saw torn; the optimistic descent turns that into a restart. *)
end

(** {2 Rank-checked latching}

    Parents (higher levels) rank before children; siblings share a rank.
    Every latch a descent hands out must be released through these. *)

val rank : Page.t -> int
val latch : Buffer_pool.frame -> Latch.mode -> unit
val unlatch : Buffer_pool.frame -> Latch.mode -> unit

val unlatch_at : int -> Buffer_pool.frame -> Latch.mode -> unit
(** Release at the rank recorded when the latch was taken, for callers
    that changed the node's level under the X latch (root growth). *)

val promote : Buffer_pool.frame -> unit

(** {2 The completion queue} *)

module Completion : sig
  type job = Post of int | Consolidate of int  (** keyed by the node's pid *)
  type t

  val create : unit -> t

  val schedule : t -> Env.t -> job -> (unit -> unit) -> bool
  (** Queue the task on the environment unless the same job is already
      queued; [true] if it was queued. A job leaves the dedup set just
      before it runs, so it can be scheduled again from then on. *)

  val pending_posts : t -> int
end

type counters = {
  side_traversals : int Atomic.t;
  descents : int Atomic.t;  (** latched descents to the leaf level *)
  postings_scheduled : int Atomic.t;
  postings_completed : int Atomic.t;
  postings_noop : int Atomic.t;  (** posting actions that found nothing to do *)
  path_reuse_hits : int Atomic.t;  (** posting searches re-entered mid-path *)
  full_retraversals : int Atomic.t;  (** posting searches from the root *)
  olc_restarts : int Atomic.t;
  olc_fallbacks : int Atomic.t;
}

val reset_counters : counters -> unit

module type S = sig
  type key
  type t

  val create : Env.t -> root:int -> cp:bool -> t
  (** Protocol state of the tree rooted at [root]; [cp]: nodes can be
      de-allocated, so traversals latch-couple. *)

  val set_post :
    t -> (level:int -> path:Saved_path.t -> address:int -> key:key -> unit) -> unit
  (** Install the posting body: post the index term for node [address]
      at [level], for a key in its space, starting from [path]. *)

  val counters : t -> counters

  val hand_over : t -> Buffer_pool.frame -> Latch.mode -> Buffer_pool.frame -> unit
  (** [hand_over t fr m nfr]: move from [fr], latched in [m], to the
      pinned [nfr], latched in [m] on return; [fr] is released and
      unpinned. Couples under CP. *)

  val descend :
    t -> key:key -> target:int -> mode:Latch.mode -> Saved_path.t * Buffer_pool.frame
  (** Latched descent from the root to the node at level [target] whose
      directly-contained space includes [key]: S latches above [target],
      [mode] at it. Returns the saved path of the levels above [target]
      and the pinned, latched frame. Side steps schedule postings. *)

  val search : t -> key:key -> level:int -> path:Saved_path.t -> Buffer_pool.frame
  (** Like [descend ~target:level ~mode:U], re-entering at the nearest
      node of [path] whose state identifier proves it usable
      (section 5.2). *)

  val olc_descend : t -> key:key -> Buffer_pool.frame * int
  (** Latch-free descent from the cached pinned root to the leaf for
      [key]: returns it pinned with a validated version snapshot. Raises
      a transient exception (see {!Pitree_storage.Olc.transient}) with
      every pin dropped when a read proves torn. *)

  val olc_protect : t -> attempt:(unit -> 'a) -> fallback:(unit -> 'a) -> 'a
  (** {!Pitree_storage.Olc.protect} counting into this tree's counters. *)

  val schedule_posting :
    t -> level:int -> container:int -> sibling:int -> path:Saved_path.t -> key:key -> unit
  (** [container] at [level] delegates [key]'s space to [sibling], whose
      index term may be missing one level up: queue the posting unless a
      move lock shows the split uncommitted (section 4.2.2). *)

  val schedule_consolidation : t -> pid:int -> (unit -> unit) -> unit
  (** Queue a consolidation of [pid] (never the root; only under CP). *)

  val pending_postings : t -> int
end

module Make (Sp : SPACE) : S with type key = Sp.key

(** What an engine over key-interval nodes supplies: its node codec, and
    the two hooks of the posting action. *)
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
  (** The separator actually posted (identity outside fault injection). *)

  val hit : [ `Latched | `Updated | `Done ] -> unit
  (** Crash points of the posting action. *)
end

module Make_interval (C : INTERVAL) : sig
  include S with type key = string

  val post :
    t ->
    split:(Txn.t -> Buffer_pool.frame -> pending:string -> string * int) ->
    grow:(Txn.t -> Buffer_pool.frame -> pending:string -> int * string * int) ->
    level:int ->
    path:Saved_path.t ->
    address:int ->
    key:string ->
    unit
  (** The §5.3 posting action: Search (saved-path re-entry), Verify
      Split, Space Test, Update, as one atomic action. [split] splits the
      X-latched index node, returning the separator and the new sibling;
      [grow] grows the X-latched full root, returning its two new
      children around the separator. *)
end
