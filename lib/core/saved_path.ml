type entry = { pid : int; level : int; state_id : int }

type t = entry list

let empty = []

let push t ~pid ~level ~state_id = { pid; level; state_id } :: t

let level t l = List.find_opt (fun e -> e.level = l) t

(* Version-based verification: frame latches publish [2 * page LSN] in
   their version word whenever no writer holds the X latch (see
   Pitree_sync.Version), so an entry is still exact iff the word equals
   twice its remembered state identifier — checkable without latching. *)
let matches e ~version = version = 2 * e.state_id

let above t l = List.filter (fun e -> e.level > l) t

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " <- ")
       (fun ppf e -> Format.fprintf ppf "L%d:%d@%d" e.level e.pid e.state_id))
    t
