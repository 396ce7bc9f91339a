(* The daemon under test: `conquer serve` as a child process.

   It runs with default flags apart from the port (0, so the kernel
   picks a free one; the daemon prints it) and, for the traced run,
   the query log. *)

type t = {
  pid : int;
  port : int;
  spawned : float;
  ready : float;
  ready_cpu : float;  (** CPU seconds the daemon had used when it became ready *)
}

(* daemons and other child processes not yet ended; killed if the
   benchmark exits early *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let host = "127.0.0.1"

let http ?body ?(headers = []) ~port target =
  Server.Http.request ~host ~port ?body ~headers ~timeout:30.0 target

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* the port from the daemon's "conquer serve: listening on HOST:PORT"
   line *)
let rec wait_for_port ~pid ~log ~until =
  let text = try read_file log with Sys_error _ -> "" in
  match
    List.find_map
      (fun line -> Scanf.sscanf_opt line "conquer serve: listening on %_s@:%d" Fun.id)
      (String.split_on_char '\n' text)
  with
  | Some port -> port
  | None ->
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith ("conquer serve exited during start-up; see " ^ log));
    if Unix.gettimeofday () > until then failwith "conquer serve did not start";
    Unix.sleepf 0.001;
    wait_for_port ~pid ~log ~until

let rec wait_ready ~port ~until =
  let ok =
    match http ~port "/readyz" with
    | r -> r.Server.Http.status = 200
    | exception (Unix.Unix_error _ | Server.Http.Disconnected) -> false
  in
  if not ok then begin
    if Unix.gettimeofday () > until then failwith "conquer serve never became ready";
    Unix.sleepf 0.001;
    wait_ready ~port ~until
  end

(* run one other CLI command to completion; its output goes to the
   work directory *)
let run_cli ~cli ~work args =
  let out =
    Unix.openfile (Filename.concat work "cli.out") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out out in
  Unix.close out;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("conquer " ^ String.concat " " args ^ " failed; see cli.out")

(* CPU seconds the live threads of a process have run: the first field
   of each /proc/PID/task/TID/schedstat, in nanoseconds.  Threads that
   have ended are not counted; at start-up the daemon ends none. *)
let live_cpu_seconds pid =
  let tasks = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" tasks tid) with
      | text -> acc +. (Scanf.sscanf text "%f" Fun.id /. 1e9)
      | exception Sys_error _ -> acc (* the thread ended meanwhile *))
    0.0 (Sys.readdir tasks)

(* Spawn the daemon and return once /readyz answers 200; [spawned] to
   [ready] is one set-up time sample, and [ready_cpu] one set-up CPU
   sample. *)
let start ~cli ~dir ~work ?query_log () =
  let log = Filename.concat work "serve.out" in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err =
    Unix.openfile (Filename.concat work "serve.err") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let args =
    [ cli; "serve"; "-d"; dir; "-p"; "0" ]
    @ match query_log with Some f -> [ "--query-log"; f ] | None -> []
  in
  let spawned = Unix.gettimeofday () in
  let pid = Unix.create_process cli (Array.of_list args) devnull out err in
  live := pid :: !live;
  List.iter Unix.close [ out; err; devnull ];
  let until = spawned +. 60.0 in
  let port = wait_for_port ~pid ~log ~until in
  wait_ready ~port ~until;
  let ready = Unix.gettimeofday () in
  { pid; port; spawned; ready; ready_cpu = live_cpu_seconds pid }

let setup_seconds t = t.ready -. t.spawned

(* user + system CPU seconds of a process, ended threads included
   (every deadline-bound query runs a watchdog thread): fields 14 and
   15 of /proc/PID/stat, in USER_HZ (100) ticks *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* skip "pid (command) ", whose command may hold spaces *)
  let after = String.rindex stat ')' + 2 in
  match String.split_on_char ' ' (String.sub stat after (String.length stat - after)) with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
    (float_of_string utime +. float_of_string stime) /. 100.0
  | _ -> nan

(* peak resident set (VmHWM) in MB *)
let peak_rss_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:nan

(* the last lines of the daemon's standard error *)
let stderr_tail ~work =
  let text = try read_file (Filename.concat work "serve.err") with Sys_error _ -> "" in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let n = List.length lines in
  String.concat " | " (List.filteri (fun i _ -> i >= n - 5) lines)

let describe_exit = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* SIGTERM, then wait for the drain; SIGKILL if it hangs.  Returns a
   description when the daemon had already exited on its own. *)
let stop ~work t =
  live := List.filter (( <> ) t.pid) !live;
  let rec reap ~until =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () > until ->
      Unix.kill t.pid Sys.sigkill;
      ignore (Unix.waitpid [] t.pid)
    | 0, _ -> Unix.sleepf 0.005; reap ~until
    | _ -> ()
  in
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ ->
    Unix.kill t.pid Sys.sigterm;
    reap ~until:(Unix.gettimeofday () +. 15.0);
    None
  | _, status ->
    Some (Printf.sprintf "daemon %s before shutdown: %s" (describe_exit status) (stderr_tail ~work))

(* ---- scraping ---- *)

(* a Prometheus sample's value, by metric name *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "%s %f" (fun n v -> if n = name then Some v else None)
         |> Option.join)
  |> Option.value ~default:0.0

type counters = {
  requests : float;
  cache_hits : float;
  cancelled : float;
  shed : float;
  minor_gcs : float;
  major_gcs : float;
}

let counters t =
  let metrics = (http ~port:t.port "/metrics").Server.Http.r_body in
  let gc = Json.parse (http ~port:t.port "/debug/gc").Server.Http.r_body in
  let gc_field k = Option.value ~default:0.0 (Json.float_field k gc) in
  {
    requests = prom_value metrics "conquer_serve_requests_total";
    cache_hits = prom_value metrics "conquer_serve_cache_hits_total";
    cancelled = prom_value metrics "conquer_serve_cancelled_total";
    shed = prom_value metrics "conquer_serve_shed_total";
    minor_gcs = gc_field "minor_collections";
    major_gcs = gc_field "major_collections";
  }
