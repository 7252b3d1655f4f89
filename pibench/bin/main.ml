(* Command-line entry: run one workload and print its report. The last
   line of standard output is the result object; the line before it
   stamps the run (host, commit, config, sample counts). Exits 1 when a
   correctness check failed, 2 on bad arguments. *)

let usage =
  "main --workload NAME --seed N --seconds N --trace 0|1 [--commit SHA] [--out-dir DIR]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let commit = ref "unknown" and out_dir = ref ".pibench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--commit", Arg.Set_string commit, "commit id to stamp");
      ("--out-dir", Arg.Set_string out_dir, "where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Pibench.Bench.find_spec !workload with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Pibench.Bench.set_gc ();
  let r =
    Pibench.Bench.run ~out_dir:!out_dir ~commit:!commit spec ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.errors;
  print_endline (Pibench.Bench.stamp_json r);
  print_endline (Pibench.Bench.result_json r);
  exit (if r.correct then 0 else 1)
