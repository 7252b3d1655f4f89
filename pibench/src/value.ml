(* Keys and values the workloads store. Every value names the key it was
   written for and the (client, sequence) write that produced it, so a
   read can tell a wrong answer from a right one and the durability
   ledger can tell which acknowledged write a record holds. Client 0 is
   the preload. *)

let len = 64
let key_len = 9

(* Fixed width, so key order is index order. *)
let key idx = Printf.sprintf "k%08d" idx

let key_index k =
  if String.length k <> key_len || k.[0] <> 'k' then None
  else int_of_string_opt (String.sub k 1 (key_len - 1))

let encode ~key ~client ~seq =
  let s = Printf.sprintf "%d/%d/%d/" key client seq in
  s ^ String.make (len - String.length s) '.'

let decode v =
  match String.split_on_char '/' v with
  | k :: c :: s :: _ -> (
      match (int_of_string_opt k, int_of_string_opt c, int_of_string_opt s) with
      | Some k, Some c, Some s -> Some (k, c, s)
      | _ -> None)
  | _ -> None

let code ~client ~seq = (client lsl 32) lor seq

(* The ledger code of [v] if it was written for key [idx], else -1. *)
let code_for idx v =
  match decode v with
  | Some (k, c, s) when k = idx -> code ~client:c ~seq:s
  | _ -> -1

let holds idx = function
  | Some v -> ( match decode v with Some (k, _, _) -> k = idx | None -> false)
  | None -> false
