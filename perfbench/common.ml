(* Parameters, inputs, result reporting and the correctness verdicts
   shared by the untraced and the traced runs. *)

module Value = Dirty.Value
module Relation = Dirty.Relation
module Dirty_db = Dirty.Dirty_db
module Store = Dirty.Store

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  work : string;
}

(* ---- fixed parameters of the workloads ---- *)

let inflight = 2 (* open connections at most: the 2 cores of the reference box *)
let setup_reps = 5 (* daemons per serve run, each serving a fifth; setup_s is their median *)
let warmup_reads = 24

(* serve-miss *)
let miss_rate = 84.0 (* req/s offered in the fixed-rate phase *)
let miss_limit_ms = 100.0 (* p99 latency limit for max_rate_rps *)
let sweep_steps = 5
let sweep_step_s = 1.0
let sweep_lo = 50.0 (* req/s; the rate search runs in [lo, hi] *)
let sweep_hi = 400.0

(* serve-hot *)
let hot_rate = 200.0
(* distinct queries: with the warm-up reads they fill 216 of the
   daemon's 256 cache entries, so no hit is evicted, and the cached
   answers' sizes average over many queries *)
let hot_queries = 192

(* the traced run's store probes *)
let write_ops = 4 (* ops per update batch *)
let compact_every = 16 (* the daemon's: a commit that would reach this chain compacts *)

(* offline-assign *)
let offline_procs = 4 (* processes, each running a quarter of the passes *)
let loads_per_proc = 3 (* loads after a warm-up load, per process; setup_s is their median *)

(* ---- metrics ---- *)

type metric = { name : string; unit_ : string; value : float; note : string }

let m ?(note = "") name unit_ value = { name; unit_; value; note }

(* the end-to-end metrics every untraced run emits (BENCHMARK.json) *)
let gated = [ "setup_s"; "cpu_ms"; "rss_mb" ]

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-32s %14.4f %-8s %s\n" x.name x.value x.unit_ x.note)
    metrics

(* ---- environment stamp ---- *)

let command_output cmd =
  match Unix.open_process_in cmd with
  | ic ->
    let out = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    out
  | exception Unix.Unix_error _ -> ""

(* the commit when run from a git work tree, otherwise a digest of the
   library sources *)
let source_id () =
  match
    if Sys.file_exists ".git" then command_output "git rev-parse HEAD 2>/dev/null" else ""
  with
  | s when String.length s = 40 -> "git:" ^ s
  | _ ->
    let rec files dir =
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
    in
    if Sys.file_exists "lib" then
      "lib-md5:"
      ^ Digest.to_hex
          (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
    else "unknown"

let stamp a extra =
  [
    ("workload", a.workload);
    ("seed", string_of_int a.seed);
    ("seconds", Printf.sprintf "%g" a.seconds);
    ("trace", string_of_bool a.trace);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("source", source_id ());
    ("inflight", string_of_int inflight);
  ]
  @ extra

(* ---- inputs ---- *)

let store_stamp store db dir =
  [
    ("sf", Printf.sprintf "%g" store.Gen.sf);
    ("if", string_of_int store.Gen.inconsistency);
    ("store_rows", string_of_int (Tpch.Datagen.total_rows db));
    ("store_bytes", string_of_int (Util.dir_bytes dir));
  ]

let daemon_flags =
  "serve -d STORE -p 0 (defaults: --concurrency 4 --queue 64 --deadline-ms \
   5000 --query-jobs 1 --cache 256, compact every 16 commits)"

let flush_policy =
  "Store.commit_delta's own (the serve workloads only read; the traced \
   run's store probes commit): every commit fsyncs its files and the \
   directory before the CURRENT flip, on the filesystem of the work directory"

(* The served store and the expected answers at its one generation. *)
type store_state = {
  dir : string;  (** the store the daemon serves; no workload writes it *)
  start_db : Dirty_db.t;
  oracle : Check.oracle;  (** expected answers, shared by every replay *)
}

(* The daemon reads the store back from its CSV files, so the oracle's
   database is Store.load of the same files. *)
let store_state dir =
  let start_db = Store.load dir in
  let generation = Store.generation dir in
  {
    dir;
    start_db;
    oracle = Check.oracle (fun g -> if g = generation then Some start_db else None);
  }

let make_serve_store a =
  let dir = Filename.concat a.work "store" in
  Util.rm_rf dir;
  let generated = Gen.generate Gen.serve_store ~seed:a.seed in
  Store.save dir (Tpch.Datagen.assign_probabilities generated);
  store_state dir

(* a serve workload's timed schedule at its fixed offered rate *)
type serve_workload = {
  rate : float;
  reqs : Load.request array;
  hot_set : string list;  (** queries to warm before timing *)
}

let serve_workload a =
  let count rate = int_of_float (rate *. a.seconds) in
  match a.workload with
  | "serve-hot" ->
    let rng = Random.State.make [| a.seed; 3 |] in
    let set = Gen.queries rng hot_queries in
    let sqls = Array.init (count hot_rate) (fun _ -> Gen.pick rng set) in
    { rate = hot_rate; reqs = Load.schedule ~rate:hot_rate sqls; hot_set = Array.to_list set }
  | _ ->
    let sqls = Gen.queries (Random.State.make [| a.seed; 1 |]) (count miss_rate) in
    { rate = miss_rate; reqs = Load.schedule ~rate:miss_rate sqls; hot_set = [] }

(* ---- judging a replay ---- *)

type judged = {
  read_ms : float list;  (** latency from due time, successful reads *)
  lag_ms : float list;
  attempted : int;
  failed : int;  (** non-200, partial, connection errors, wrong answers *)
  wrong : int;  (** wrong answers only *)
  first_error : string option;
}

let judge st (reqs : Load.request array) (outs : Load.outcome array) =
  let failed = ref 0 and wrong = ref 0 and first_error = ref None in
  let read_ms = ref [] and lag_ms = ref [] in
  let fail msg =
    incr failed;
    if !first_error = None then first_error := Some msg
  in
  Array.iteri
    (fun i (r : Load.request) ->
      let o = outs.(i) in
      lag_ms := Load.lag_ms o :: !lag_ms;
      match Check.read st.oracle ~sql:r.sql ~status:o.status ~body:o.body with
      | Check.Ok_answer -> read_ms := Load.latency_ms o :: !read_ms
      | Check.Failed msg ->
        if o.status = 200 && not (String.starts_with ~prefix:"partial" msg) then incr wrong;
        fail (Printf.sprintf "request %d: %s" r.id msg))
    reqs;
  {
    read_ms = !read_ms;
    lag_ms = !lag_ms;
    attempted = Array.length reqs;
    failed = !failed;
    wrong = !wrong;
    first_error = !first_error;
  }

(* a daemon that died under load fails the run *)
let with_exit judged = function
  | None -> judged
  | Some msg -> { judged with failed = judged.failed + 1; first_error = Some msg }

let merge_judged a b =
  {
    read_ms = a.read_ms @ b.read_ms;
    lag_ms = a.lag_ms @ b.lag_ms;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    wrong = a.wrong + b.wrong;
    first_error = (match a.first_error with Some _ -> a.first_error | None -> b.first_error);
  }

let no_judged =
  { read_ms = []; lag_ms = []; attempted = 0; failed = 0; wrong = 0; first_error = None }

(* ---- daemon sessions ---- *)

(* closed-loop warm-up outside the timed schedule; on serve-hot this
   fills the result cache with the hot set *)
let warm ~port sqls =
  List.iter (fun sql -> ignore (Load.send ~port { Load.id = 0; due = 0.0; sql })) sqls

let warm_set a =
  let rng = Random.State.make [| a.seed; 4 |] in
  Array.to_list (Gen.queries rng warmup_reads)

