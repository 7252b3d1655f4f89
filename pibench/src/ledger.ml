(* Durability ledger: every acknowledged write, with the interval in which
   it ran, checked against what a store holds after crash and recovery.

   Keys and written values are small integers (the workload encodes them
   into the stored strings). Keys [0, preloaded) start out holding their
   preload code; any other key must have been written to exist.

   Once every write has been acknowledged, a linearizable store holds, for
   each key, the value of some write that no other write to that key
   started after: a write that finished before another began was
   overwritten by it. The checker accepts exactly those values. *)

type write = { code : int; start : int; ack : int }

type t = {
  preloaded : int;
  preload_code : int -> int;
  writes : (int, write list) Hashtbl.t;
}

let create ~preloaded ~preload_code =
  { preloaded; preload_code; writes = Hashtbl.create 4096 }

let record t ~key ~code ~start ~ack =
  let prev = Option.value (Hashtbl.find_opt t.writes key) ~default:[] in
  Hashtbl.replace t.writes key ({ code; start; ack } :: prev)

let acknowledged t = Hashtbl.length t.writes

let history t key =
  let ws = Option.value (Hashtbl.find_opt t.writes key) ~default:[] in
  if key >= 0 && key < t.preloaded then
    { code = t.preload_code key; start = min_int; ack = min_int } :: ws
  else ws

let candidates ws =
  let last_start = List.fold_left (fun m w -> max m w.start) min_int ws in
  List.filter_map (fun w -> if w.ack >= last_start then Some w.code else None) ws

let expected t key =
  match history t key with [] -> None | ws -> Some (candidates ws)

(* [iter f] must call [f ~key ~code] once for every record the store
   holds. Returns the number of records seen and up to [limit] error
   messages (empty when every acknowledged write is there). *)
let check ?(limit = 10) t iter =
  let errors = ref [] and nerr = ref 0 in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        incr nerr;
        if !nerr <= limit then errors := s :: !errors)
      fmt
  in
  let seen_dense = Bytes.make t.preloaded '\000' in
  let seen_sparse = Hashtbl.create 1024 in
  let seen = ref 0 in
  iter (fun ~key ~code ->
      incr seen;
      let dup =
        if key >= 0 && key < t.preloaded then begin
          let d = Bytes.get seen_dense key <> '\000' in
          Bytes.set seen_dense key '\001';
          d
        end
        else begin
          let d = Hashtbl.mem seen_sparse key in
          Hashtbl.replace seen_sparse key ();
          d
        end
      in
      if dup then err "key %d returned twice" key
      else
        match expected t key with
        | None -> err "key %d present but never written" key
        | Some codes ->
            if not (List.mem code codes) then
              err "key %d holds value %d, acknowledged values allow [%s]" key
                code
                (String.concat "; " (List.map string_of_int codes)));
  for key = 0 to t.preloaded - 1 do
    if Bytes.get seen_dense key = '\000' then err "preloaded key %d lost" key
  done;
  Hashtbl.iter
    (fun key _ ->
      if (key < 0 || key >= t.preloaded) && not (Hashtbl.mem seen_sparse key)
      then err "acknowledged key %d lost" key)
    t.writes;
  if !nerr > limit then
    errors := Printf.sprintf "... %d more" (!nerr - limit) :: !errors;
  (!seen, List.rev !errors)
