(* Tests for pitree.core: the interval key space, the generic six-condition
   well-formedness checker (against hand-built good and defective trees),
   saved paths, and the protocol core's completion queue. *)

module K = Pitree_core.Keyspace.Interval
module Wellformed = Pitree_core.Wellformed
module Saved_path = Pitree_core.Saved_path
module WF = Wellformed.Make (K)

let itv low high = K.make ~low ~high

let test_interval_contains () =
  let i = itv (Some "b") (Some "f") in
  Alcotest.(check bool) "inside" true (K.contains i "c");
  Alcotest.(check bool) "low inclusive" true (K.contains i "b");
  Alcotest.(check bool) "high exclusive" false (K.contains i "f");
  Alcotest.(check bool) "below" false (K.contains i "a");
  Alcotest.(check bool) "whole contains all" true (K.contains K.whole "anything")

let test_interval_subset () =
  Alcotest.(check bool) "strict subset" true
    (K.subset (itv (Some "c") (Some "d")) (itv (Some "b") (Some "f")));
  Alcotest.(check bool) "equal" true
    (K.subset (itv (Some "b") (Some "f")) (itv (Some "b") (Some "f")));
  Alcotest.(check bool) "overlap only" false
    (K.subset (itv (Some "a") (Some "d")) (itv (Some "b") (Some "f")));
  Alcotest.(check bool) "everything in whole" true
    (K.subset (itv (Some "x") None) K.whole);
  Alcotest.(check bool) "whole not in finite" false
    (K.subset K.whole (itv (Some "a") (Some "z")));
  Alcotest.(check bool) "empty in anything" true
    (K.subset (itv (Some "q") (Some "q")) (itv (Some "a") (Some "b")))

let test_interval_covers () =
  let target = itv (Some "b") (Some "z") in
  Alcotest.(check bool) "exact tiling" true
    (K.covers [ itv (Some "b") (Some "m"); itv (Some "m") (Some "z") ] target);
  Alcotest.(check bool) "overlapping tiles" true
    (K.covers [ itv (Some "a") (Some "p"); itv (Some "k") None ] target);
  Alcotest.(check bool) "gap" false
    (K.covers [ itv (Some "b") (Some "k"); itv (Some "m") (Some "z") ] target);
  Alcotest.(check bool) "short" false
    (K.covers [ itv (Some "b") (Some "y") ] target);
  Alcotest.(check bool) "unordered input" true
    (K.covers
       [ itv (Some "m") (Some "z"); itv (Some "b") (Some "g"); itv (Some "g") (Some "m") ]
       target);
  Alcotest.(check bool) "whole needs infinite parts" false
    (K.covers [ itv None (Some "m") ] K.whole);
  Alcotest.(check bool) "whole covered" true
    (K.covers [ itv None (Some "m"); itv (Some "m") None ] K.whole)

(* Property: covers agrees with pointwise sampling. *)
let prop_covers_pointwise =
  let open QCheck in
  let bound_gen = Gen.(opt (map (String.make 1) (char_range 'a' 'z'))) in
  let itv_gen = Gen.(map2 (fun l h -> K.make ~low:l ~high:h) bound_gen bound_gen) in
  Test.make ~name:"covers agrees with membership sampling" ~count:300
    (make Gen.(pair (list_size (int_range 0 6) itv_gen) itv_gen))
    (fun (parts, s) ->
      let covered = K.covers parts s in
      (* Sample all 1-char keys; if covers=true then every point of s must
         be in some part. *)
      let points = List.init 26 (fun i -> String.make 1 (Char.chr (97 + i))) in
      let violated =
        List.exists
          (fun p ->
            K.contains s p && not (List.exists (fun part -> K.contains part p) parts))
          points
      in
      (not covered) || not violated)

(* --- the generic checker against synthetic trees --- *)

(* A healthy two-level B-link shape:
       root(3): [-inf,inf) -> children 1,2 ; node 1 --side--> node 2 *)
let good_tree =
  let view id level responsible directly index_terms sibling_terms =
    { WF.id; level; responsible; directly_contained = directly; index_terms; sibling_terms }
  in
  fun pid ->
    match pid with
    | 3 ->
        Some
          (view 3 1 K.whole K.whole
             [ (itv None (Some "m"), 1); (itv (Some "m") None, 2) ]
             [])
    | 1 ->
        Some
          (view 1 0 K.whole (itv None (Some "m")) [] [ (itv (Some "m") None, 2) ])
    | 2 -> Some (view 2 0 (itv (Some "m") None) (itv (Some "m") None) [] [])
    | _ -> None

let test_checker_accepts_good () =
  let report = WF.check ~root:3 ~read:good_tree in
  Alcotest.(check bool) "ok" true (Wellformed.ok report);
  Alcotest.(check int) "three nodes" 3 report.Wellformed.nodes_visited;
  Alcotest.(check int) "two levels" 2 report.Wellformed.levels

let test_checker_intermediate_state_ok () =
  (* A node reachable only via a side pointer (no index term yet) is a
     legal intermediate state — the B-link generalization the paper makes
     central. *)
  let read pid =
    match good_tree pid with
    | Some v when pid = 3 ->
        (* Parent lost node 2's term; node 1's term must cover the range
           through its sibling chain. *)
        Some { v with WF.index_terms = [ (K.whole, 1) ] }
    | v -> v
  in
  let report = WF.check ~root:3 ~read in
  Alcotest.(check bool) "intermediate state is well-formed" true (Wellformed.ok report)

let test_checker_detects_dangling () =
  let read pid = if pid = 2 then None else good_tree pid in
  let report = WF.check ~root:3 ~read in
  Alcotest.(check bool) "dangling pointer detected" false (Wellformed.ok report)

let test_checker_detects_gap () =
  (* Node 1 stops delegating: keys >= "m" are nowhere. *)
  let read pid =
    match good_tree pid with
    | Some v when pid = 1 -> Some { v with WF.sibling_terms = [] ; WF.responsible = K.whole }
    | Some v when pid = 3 -> Some { v with WF.index_terms = [ (K.whole, 1) ] }
    | v -> v
  in
  let report = WF.check ~root:3 ~read in
  Alcotest.(check bool) "coverage gap detected" false (Wellformed.ok report)

let test_checker_detects_escaping_term () =
  (* An index term claims a space its child is not responsible for. *)
  let read pid =
    match good_tree pid with
    | Some v when pid = 3 ->
        Some
          {
            v with
            WF.index_terms = [ (itv None (Some "z"), 1); (itv (Some "m") None, 2) ];
          }
    | Some v when pid = 1 -> Some { v with WF.responsible = itv None (Some "m"); WF.sibling_terms = [] }
    | v -> v
  in
  let report = WF.check ~root:3 ~read in
  Alcotest.(check bool) "escaping term detected" false (Wellformed.ok report)

let test_checker_detects_data_with_index_terms () =
  let read pid =
    match good_tree pid with
    | Some v when pid = 2 -> Some { v with WF.index_terms = [ (K.whole, 1) ] }
    | v -> v
  in
  let report = WF.check ~root:3 ~read in
  Alcotest.(check bool) "condition 5 detected" false (Wellformed.ok report)

let test_checker_handles_cycles () =
  (* Sibling cycle must terminate (and is ill-formed here because of the
     escaping spaces). *)
  let view id responsible sibling =
    {
      WF.id;
      level = 0;
      responsible;
      directly_contained = itv (Some "a") (Some "b");
      index_terms = [];
      sibling_terms = [ (itv (Some "b") None, sibling) ];
    }
  in
  let read = function
    | 1 -> Some (view 1 K.whole 2)
    | 2 -> Some (view 2 (itv (Some "b") None) 1)
    | _ -> None
  in
  let report = WF.check ~root:1 ~read in
  (* Just terminating is the point. *)
  Alcotest.(check int) "visited both" 2 report.Wellformed.nodes_visited

(* --- saved paths --- *)

let test_saved_path () =
  let p = Saved_path.empty in
  let p = Saved_path.push p ~pid:10 ~level:2 ~state_id:5 in
  let p = Saved_path.push p ~pid:20 ~level:1 ~state_id:9 in
  (match Saved_path.level p 1 with
  | Some e ->
      Alcotest.(check int) "pid" 20 e.Saved_path.pid;
      Alcotest.(check int) "state id" 9 e.Saved_path.state_id
  | None -> Alcotest.fail "level 1 missing");
  Alcotest.(check bool) "level 0 absent" true (Saved_path.level p 0 = None);
  let above = Saved_path.above p 1 in
  Alcotest.(check int) "above keeps strictly higher" 1 (List.length above);
  Alcotest.(check bool) "above holds level 2" true
    (match above with [ e ] -> e.Saved_path.level = 2 | _ -> false)

(* --- completion queue --- *)

let test_completion_dedup () =
  let module C = Pitree_core.Protocol.Completion in
  let module Env = Pitree_env.Env in
  let env = Env.create { Env.default_config with page_size = 512; pool_capacity = 64 } in
  let q = C.create () in
  let runs = ref 0 in
  let schedule job = C.schedule q env job (fun () -> incr runs) in
  Alcotest.(check bool) "first schedule queued" true (schedule (C.Post 7));
  Alcotest.(check bool) "second schedule absorbed" false (schedule (C.Post 7));
  Alcotest.(check bool) "other job kind queued" true (schedule (C.Consolidate 7));
  Alcotest.(check int) "one posting pending" 1 (C.pending_posts q);
  Alcotest.(check int) "two tasks ran" 2 (Env.drain env);
  Alcotest.(check int) "each job once" 2 !runs;
  Alcotest.(check int) "nothing pending" 0 (C.pending_posts q);
  Alcotest.(check bool) "reschedule after the run" true (schedule (C.Post 7));
  Alcotest.(check int) "rescheduled task ran" 1 (Env.drain env);
  Alcotest.(check int) "three runs" 3 !runs

let suites =
  [
    ( "core.interval",
      [
        Alcotest.test_case "contains" `Quick test_interval_contains;
        Alcotest.test_case "subset" `Quick test_interval_subset;
        Alcotest.test_case "covers" `Quick test_interval_covers;
        QCheck_alcotest.to_alcotest prop_covers_pointwise;
      ] );
    ( "core.wellformed",
      [
        Alcotest.test_case "accepts good tree" `Quick test_checker_accepts_good;
        Alcotest.test_case "intermediate state ok" `Quick
          test_checker_intermediate_state_ok;
        Alcotest.test_case "detects dangling pointer" `Quick test_checker_detects_dangling;
        Alcotest.test_case "detects coverage gap" `Quick test_checker_detects_gap;
        Alcotest.test_case "detects escaping term" `Quick
          test_checker_detects_escaping_term;
        Alcotest.test_case "detects data node with index terms" `Quick
          test_checker_detects_data_with_index_terms;
        Alcotest.test_case "terminates on cycles" `Quick test_checker_handles_cycles;
      ] );
    ("core.saved_path", [ Alcotest.test_case "push/level/above" `Quick test_saved_path ]);
    ( "core.completion",
      [ Alcotest.test_case "dedup until run, then reschedule" `Quick test_completion_dedup ] );
  ]
