(** Remembered root-to-leaf paths with state identifiers (paper section 5.2).

    A traversal records, per level, the node it passed through, that node's
    state identifier (page LSN) and the slot where the relevant index term
    was found. Later atomic actions of the same structure change use the
    path to reach the parent level without a full re-traversal — but must
    first {e verify} it, because the Pi-tree may have changed in between:

    - unchanged state id => the remembered node and slot are still exact;
    - changed state id under the CNS invariant => the node still exists
      (nodes are immortal); re-search within it, or follow side pointers;
    - changed state id under the CP invariant with "de-allocation is a node
      update" (section 5.2.2 strategy (b)) => climb the path toward the
      root until an unchanged node is found, and re-descend from there. *)

type entry = {
  pid : int;
  level : int;     (** tree level of this node (leaf = 0) *)
  state_id : int;  (** page LSN when traversed *)
}

type t = entry list

val empty : t

val push : t -> pid:int -> level:int -> state_id:int -> t

val level : t -> int -> entry option
(** The remembered node at the given tree level, if recorded. *)

val matches : entry -> version:int -> bool
(** Latch-free verification: [matches e ~version] holds iff a node's
    current version word (see [Pitree_sync.Version]; frame latches
    publish twice the page LSN) proves the node is exactly as remembered
    — the state identifier is unchanged and no writer is mid-mutation
    (an odd word never matches). Callers that act on the node contents
    must still re-validate the word afterwards, or take a latch. *)

val above : t -> int -> t
(** Entries for levels strictly greater than the argument. *)

val pp : Format.formatter -> t -> unit
