(* The untraced runs, which give the end-to-end metrics. *)

open Common

(* ---- serve-miss rate search ---- *)

(* Bisect, in log space, for the highest offered rate whose p99 stays
   within the limit with the generator on schedule at the end of the
   step (no growing backlog).  Every step's answers are judged too. *)
let max_rate a st ~port =
  let steps = ref [] in
  let rec search k lo hi =
    if k = sweep_steps then lo
    else begin
      let rate = Float.sqrt (lo *. hi) in
      let rng = Random.State.make [| a.seed; 100 + k |] in
      let n = int_of_float (rate *. sweep_step_s) in
      let reqs =
        Load.schedule ~rate ~first_id:(1_000_000 * (k + 1)) (Gen.queries rng n)
      in
      let outs = Load.run ~port ~inflight reqs in
      let j = judge st reqs outs in
      steps := j :: !steps;
      let p99 = Util.quantile j.read_ms 0.99 in
      (* the send lag over the step's last tenth *)
      let tail = max 1 (n / 10) in
      let end_lag =
        Util.median (List.init tail (fun i -> Load.lag_ms outs.(n - tail + i)))
      in
      let ok = j.failed = 0 && p99 <= miss_limit_ms && end_lag <= miss_limit_ms /. 4.0 in
      Printf.printf "  rate step %d: %.1f req/s  p99 %.2f ms  end lag %.2f ms  %s\n%!" k
        rate p99 end_lag (if ok then "pass" else "fail");
      if ok then search (k + 1) rate hi else search (k + 1) lo rate
    end
  in
  let best = search 0 sweep_lo sweep_hi in
  (best, List.fold_left merge_judged no_judged !steps)

(* ---- the untraced serve workloads ---- *)

(* median, p90 and p99 of a latency sample, with its size and the
   count beyond each tail percentile *)
let latency_metrics ?(what = "") ms =
  let n = List.length ms in
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  [
    m "p50_ms" "ms" (Util.median ms) ~note:(Printf.sprintf "%sn=%d" what n);
    m "p90_ms" "ms" (Util.quantile ms 0.90)
      ~note:(Printf.sprintf "%sn=%d, %d beyond" what n (beyond 0.90));
    m "p99_ms" "ms" (Util.quantile ms 0.99)
      ~note:(Printf.sprintf "%sn=%d, %d beyond" what n (beyond 0.99));
  ]

(* The timed schedule is cut into [setup_reps] consecutive slices, one
   per daemon: each daemon is started (one set-up sample), warmed,
   serves its slice and is stopped.  A daemon process settles into a
   faster or a slower tail for its whole life, so pooling five of them
   steadies the percentiles. *)
let serve_run a =
  let phases = Util.phases () in
  let timer name f = Util.timed_phase phases name f in
  let st, w = timer "inputs" (fun () -> (make_serve_store a, serve_workload a)) in
  let start_warm () =
    let d = Daemon.start ~cli:a.cli ~dir:st.dir ~work:a.work () in
    warm ~port:d.port (warm_set a @ w.hot_set);
    d
  in
  let jiffies0 = Util.cpu_jiffies () in
  let served =
    timer "timed" (fun () ->
        List.map
          (fun slice ->
            let d = start_warm () in
            let cpu0 = Daemon.cpu_seconds d.pid in
            let outs = Load.run ~port:d.port ~inflight slice in
            let cpu = Daemon.cpu_seconds d.pid -. cpu0 in
            let rss = Daemon.peak_rss_mb d.pid in
            ((d.ready_cpu, Daemon.setup_seconds d), outs, cpu, rss, Daemon.stop ~work:a.work d))
          (Load.slices w.reqs setup_reps))
  in
  let jiffies1 = Util.cpu_jiffies () in
  let outs = Array.concat (List.map (fun (_, o, _, _, _) -> o) served) in
  Load.dump (Filename.concat a.work "requests.csv") w.reqs outs;
  let rate_result =
    if a.workload <> "serve-miss" then None
    else
      timer "rate search" (fun () ->
          let d = start_warm () in
          let r = max_rate a st ~port:d.port in
          Some (r, Daemon.stop ~work:a.work d))
  in
  let j = timer "check" (fun () -> judge st w.reqs outs) in
  let all = match rate_result with Some ((_, s), _) -> merge_judged j s | None -> j in
  let all =
    List.fold_left with_exit all
      (List.map (fun (_, _, _, _, died) -> died) served
      @ match rate_result with Some (_, died) -> [ died ] | None -> [])
  in
  let setups = List.map (fun (s, _, _, _, _) -> s) served in
  let rss = Util.median (List.map (fun (_, _, _, r, _) -> r) served) in
  let cpu = Util.sum (List.map (fun (_, _, c, _, _) -> c) served) in
  let extra =
    match rate_result with
    | Some ((best, _), _) ->
      [ m "max_rate_rps" "req/s" best ~note:(Printf.sprintf "p99 limit %.0f ms" miss_limit_ms) ]
    | None -> []
  in
  let metrics =
    [
      m "setup_s" "s" (Util.median (List.map fst setups))
        ~note:(Printf.sprintf "daemon CPU to first ready, median of %d starts" setup_reps);
      m "setup_wall_s" "s" (Util.median (List.map snd setups))
        ~note:(Printf.sprintf "spawn to first ready, median of %d starts" setup_reps);
      m "cpu_ms" "ms" (cpu *. 1000.0 /. float_of_int (Array.length w.reqs))
        ~note:"daemon user+system CPU per timed request";
    ]
    @ latency_metrics j.read_ms @ extra
    @ [
        m "error_rate" "fraction" (float_of_int all.failed /. float_of_int all.attempted);
        m "rss_mb" "MB" rss ~note:(Printf.sprintf "daemon VmHWM, median of %d" setup_reps);
      ]
  in
  let st_stamp =
    store_stamp Gen.serve_store st.start_db st.dir
    @ [
        ("offered_rate_rps", Printf.sprintf "%g" w.rate);
        ("daemon_flags", daemon_flags);
        ("flush_policy", flush_policy);
        ("cpu_steal_pct", Printf.sprintf "%.2f" (Util.steal_pct jiffies0 jiffies1));
        ("phase_s", Util.phase_report phases);
      ]
  in
  (metrics, all, st_stamp)

(* ---- offline-assign ---- *)

let descriptive_attrs (spec : Tpch.Schema.table_spec) =
  List.filter
    (fun n ->
      n <> spec.id_attr && n <> spec.prob_attr
      && Some n <> spec.rowid_attr
      && not (String.ends_with ~suffix:"_raw" n))
    (Dirty.Schema.names spec.schema)

(* Validate the saved output and compare it, after reload, with an
   independent in-process assignment over the propagated input.  The
   store writes floats as %g text, so probabilities are compared at
   that precision: as the text the store would write. *)
let check_assigned ~propagated dir =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let out = Store.load dir in
  let diags = Dirty.Validate.db_diagnostics out in
  if not (Dirty.Validate.is_clean diags) then
    add
      ("validation: "
      ^ String.concat "; "
          (List.map Dirty.Validate.to_string (Dirty.Validate.errors diags)));
  List.iter
    (fun (t : Dirty_db.table) ->
      let spec = Tpch.Schema.spec t.name in
      let want =
        Prob.Assign.assign ~attrs:(descriptive_attrs spec) t.relation t.clustering
      in
      let got = Dirty_db.find_table out t.name in
      let prob = Dirty.Schema.index_of (Relation.schema t.relation) spec.prob_attr in
      let a = Relation.rows t.relation and b = Relation.rows got.relation in
      if Array.length a <> Array.length b then add (t.name ^ ": row count differs")
      else
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun c v ->
                let w = b.(i).(c) in
                let same =
                  if c = prob then
                    Value.to_string w = Value.to_string (Value.Float want.(i))
                  else Value.compare v w = 0
                in
                if not same then add (Printf.sprintf "%s row %d column %d differs" t.name i c))
              row)
          a)
    (Dirty_db.tables propagated);
  List.rev !errors

(* The input store, without probabilities, written by `conquer
   generate` in a child process so that generating it does not count in
   this process's peak RSS. *)
let make_assign_store a =
  let dir = Filename.concat a.work "assign.in" in
  Util.rm_rf dir;
  Daemon.run_cli ~cli:a.cli ~work:a.work
    [
      "generate"; dir;
      "--sf"; Printf.sprintf "%g" Gen.assign_store.sf;
      "--if"; string_of_int Gen.assign_store.inconsistency;
      "--seed"; string_of_int a.seed;
    ];
  dir

(* One process's share of the timed pipeline passes. *)
type share = { loads : Util.cost list; passes : Util.cost list; rss : float }

let share ~input ~output ~seconds () =
  ignore (Store.load input);
  let loads = List.init loads_per_proc (fun _ -> Util.measure (fun () -> Store.load input)) in
  let db = Store.load input in
  let deadline = Util.now () +. seconds in
  (* each pass's output is garbage once saved, so the peak RSS is one
     pass's *)
  let rec passes acc =
    if Util.now () >= deadline && acc <> [] then List.rev acc
    else
      passes
        (Util.measure (fun () ->
             Store.save output
               (Tpch.Datagen.assign_probabilities (Tpch.Datagen.propagate_all db)))
        :: acc)
  in
  let passes = passes [] in
  { loads; passes; rss = Daemon.peak_rss_mb (Unix.getpid ()) }

(* [f ()] in a forked child process, its result sent back marshalled
   over a pipe *)
let in_child (f : unit -> share) : share =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match f () with
      | x ->
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc x [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("offline-assign: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    Daemon.live := pid :: !Daemon.live;
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let x = try Some (Marshal.from_channel ic : share) with End_of_file -> None in
    close_in ic;
    let status = Unix.waitpid [] pid in
    Daemon.live := List.filter (( <> ) pid) !Daemon.live;
    match status, x with
    | (_, Unix.WEXITED 0), Some x -> x
    | (_, status), _ -> failwith ("offline-assign pass process " ^ Daemon.describe_exit status))

(* The passes run in [offline_procs] processes one after another: like
   a daemon, a process settles into a faster or a slower regime for
   its whole life, so pooling several steadies the medians. *)
let offline_run a =
  let phases = Util.phases () in
  let timer name f = Util.timed_phase phases name f in
  let input = timer "inputs" (fun () -> make_assign_store a) in
  let output = Filename.concat a.work "assign.out" in
  Util.rm_rf output;
  let shares =
    timer "timed" (fun () ->
        List.init offline_procs (fun _ ->
            in_child
              (share ~input ~output ~seconds:(a.seconds /. float_of_int offline_procs))))
  in
  let loads = List.concat_map (fun s -> s.loads) shares in
  let times = List.concat_map (fun s -> s.passes) shares in
  let rss = Util.median (List.map (fun s -> s.rss) shares) in
  let db = Store.load input in
  let rows = Tpch.Datagen.total_rows db in
  let errors =
    timer "check" (fun () ->
        check_assigned ~propagated:(Tpch.Datagen.propagate_all db) output)
  in
  List.iter (fun e -> Printf.printf "  mismatch: %s\n" e) errors;
  let n = List.length times in
  let wall = List.map (fun (t : Util.cost) -> t.wall) times in
  let metrics =
    [
      m "setup_s" "s" (Util.median (List.map (fun (t : Util.cost) -> t.cpu) loads))
        ~note:(Printf.sprintf "Store.load CPU, median of %d" (List.length loads));
      m "setup_wall_s" "s" (Util.median (List.map (fun (t : Util.cost) -> t.wall) loads))
        ~note:(Printf.sprintf "Store.load, median of %d" (List.length loads));
      m "cpu_ms" "ms"
        (1000.0 *. Util.median (List.map (fun (t : Util.cost) -> t.cpu) times))
        ~note:(Printf.sprintf "process CPU per pass, median of %d" n);
    ]
    @ latency_metrics ~what:"per pass, " (List.map (fun t -> t *. 1000.0) wall)
    @ [
      m "rows_per_s" "rows/s" (float_of_int (rows * n) /. Util.sum wall);
      m "error_rate" "fraction" (if errors = [] then 0.0 else 1.0);
      m "rss_mb" "MB" rss
        ~note:(Printf.sprintf "VmHWM of a pass process, median of %d" offline_procs);
    ]
  in
  let judged =
    {
      no_judged with
      attempted = n;
      failed = (if errors = [] then 0 else 1);
      wrong = List.length errors;
      first_error = List.nth_opt errors 0;
    }
  in
  (metrics, judged, store_stamp Gen.assign_store db input
    @ [ ("input_rows", string_of_int rows); ("phase_s", Util.phase_report phases) ])

