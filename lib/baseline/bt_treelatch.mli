(** Baseline 2: B+tree with a tree latch serializing structure changes
    (the ARIES/IM contrast class).

    The paper's point of comparison (section 1, innovation 2): "in ARIES/IM
    complete structural changes are serial". This baseline models that
    property directly: every operation holds a tree-level latch in S mode;
    a structure modification (split cascade) acquires it in X mode, so SMOs
    exclude each other {e and} all concurrent operations for their whole
    duration — unlike Pi-tree atomic actions, which only X-latch one or two
    nodes briefly.

    (This is deliberately the {e class} property, not a re-implementation of
    ARIES/IM's finer points — IM lets readers slip past the tree latch in
    more cases; experiment E1/E4 measures the serial-SMO cost that both
    share.)

    Same page/WAL substrate and auto-commit transactions as the other
    engines. Deletes are lazy. *)

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
  smo_waits : int;  (** times an operation had to queue behind the tree latch *)
}

val stats : t -> stats

val inst : t -> Pitree_core.Engine.instance
(** This baseline behind the uniform engine interface; [?txn] is ignored
    and [scan] reports 0 (no ordered iteration). *)
