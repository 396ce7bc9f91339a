(* The served-path benchmark: drives a `conquer serve` child process
   with open-loop traffic (serve-miss, serve-hot), runs
   the offline probability-assignment pipeline in-process
   (offline-assign), checks every answer, and prints the metrics.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --cli PATH/conquer_cli.exe --work DIR

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones
   of the traced run.  See README.md in this directory. *)

open Common

(* ---- main ---- *)

let workloads = [ "serve-miss"; "serve-hot"; "offline-assign" ]

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--cli", Arg.Set_string cli, "PATH the built conquer_cli.exe");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores and logs");
    ]
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --work DIR";
  if not (List.mem !workload workloads) then (prerr_endline ("unknown workload " ^ !workload); exit 2);
  if !cli = "" || !work = "" then (prerr_endline "--cli and --work are required"; exit 2);
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; cli = !cli; work = !work }

let () =
  (* exit (running at_exit, which kills live daemons) on SIGTERM/SIGINT *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  let a = parse_args () in
  Util.mkdir_p a.work;
  let metrics, judged, extra =
    if a.trace then Traced.run a
    else if a.workload = "offline-assign" then Untraced.offline_run a
    else Untraced.serve_run a
  in
  let stamp = stamp a extra in
  Printf.printf "perfbench %s seed %d (%s)\n" a.workload a.seed
    (if a.trace then "traced" else "untraced");
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) stamp;
  print_table "metrics:" metrics;
  Option.iter (fun e -> Printf.printf "first error: %s\n" e) judged.first_error;
  let result_file =
    Filename.concat a.work
      (Printf.sprintf "result-%s-seed%d-trace%d.json" a.workload a.seed
         (if a.trace then 1 else 0))
  in
  Util.write_file result_file
    (Printf.sprintf "{\"stamp\": {%s}, \"metrics\": {%s}}\n"
       (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) stamp))
       (String.concat ", "
          (List.map (fun x -> Printf.sprintf "%S: %s" x.name (json_number x.value)) metrics)));
  let emitted =
    if a.trace then metrics
    else List.filter (fun x -> List.mem x.name gated) metrics
  in
  (match List.find_opt (fun x -> not (Float.is_finite x.value)) emitted with
  | Some x ->
    Printf.eprintf "perfbench: %s could not be measured\n" x.name;
    exit 3
  | None -> ());
  print_result ~correct:(judged.wrong = 0) ~attempted:judged.attempted
    ~failed:judged.failed emitted;
  if judged.wrong > 0 then exit 1
