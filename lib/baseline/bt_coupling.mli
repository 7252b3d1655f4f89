(** Baseline 1: B+tree with latch coupling (Bayer & Schkolnick class).

    The comparison point the literature calls "lock coupling": writers
    X-latch their whole descent path, releasing an ancestor only once the
    child below it is {e safe} (cannot split); readers S-latch-couple. There
    are no side pointers: a node split must update the parent {e in the same
    operation}, which is why the unsafe path stays X-latched — the source of
    the contention the Pi-tree eliminates.

    Logging uses the same substrate as the Pi-tree engine (each operation is
    an auto-committed transaction), so throughput comparisons isolate the
    concurrency protocol. Deletes are lazy (no merging), a standard
    simplification for this baseline. *)

type t

val create : Pitree_env.Env.t -> name:string -> t
val insert : t -> key:string -> value:string -> unit
val delete : t -> string -> bool
val find : t -> string -> string option
val count : t -> int
val height : t -> int

type stats = {
  searches : int;
  inserts : int;
  splits : int;
  unsafe_retained : int;
      (** ancestor latches retained because the child was unsafe — the
          latch-footprint metric for experiment E4 *)
}

val stats : t -> stats

val inst : t -> Pitree_core.Engine.instance
(** This baseline behind the uniform engine interface; [?txn] is ignored
    and [scan] reports 0 (no ordered iteration). *)
