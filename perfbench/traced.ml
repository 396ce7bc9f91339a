(* The traced run, which gives the per-layer metrics.

   1. The workload's schedule is replayed against a plain daemon (the
      untraced reference) and then against one started with
      --query-log, which logs the queue/exec/total split of every
      /query; /metrics and /debug/gc are scraped around the replay.
   2. The same request sequence is replayed in-process through the
      library's public functions on a Conquer.Clean session over the
      same store, mirroring the daemon's caches, with a span around
      each call (Spans).
   3. Single-layer probes time the store, session, deadline and
      offline-pipeline functions on the workload's own store.

   offline-assign has no schedule of its own: its traced run serves a
   short serve-miss schedule over the store it produces, so every
   per-layer metric is measured on every workload. *)

open Common
module Clean = Conquer.Clean

(* ---- step 1: the daemon replays ---- *)

type replay = {
  outs : Load.outcome array;
  before : Daemon.counters;
  after : Daemon.counters;
  judged : judged;
}

let replay a st (w : serve_workload) ?query_log () =
  Option.iter (fun f -> if Sys.file_exists f then Sys.remove f) query_log;
  let d = Daemon.start ~cli:a.cli ~dir:st.dir ~work:a.work ?query_log () in
  warm ~port:d.port (warm_set a @ w.hot_set);
  let before = Daemon.counters d in
  let outs = Load.run ~port:d.port ~inflight w.reqs in
  let after = Daemon.counters d in
  let died = Daemon.stop ~work:a.work d in
  let judged = with_exit (judge st w.reqs outs) died in
  { outs; before; after; judged }

let query_log_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Server.Querylog.of_json line with
         | Ok r -> Some (r.Server.Querylog.trace_id, r)
         | Error _ -> None)
  |> List.to_seq |> Hashtbl.of_seq

let read_ids (w : serve_workload) = Array.to_list (Array.map (fun (r : Load.request) -> r.id) w.reqs)

let server_metrics (w : serve_workload) (r : replay) records =
  let per_read f =
    Util.median
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i (q : Load.request) ->
                 match Hashtbl.find_opt records (Load.trace_id q.id) with
                 | Some rec_ -> [ f r.outs.(i) rec_ ]
                 | None -> [])
               w.reqs)))
  in
  let open Server.Querylog in
  let delta f = f r.after -. f r.before in
  let requests = float_of_int (Array.length w.reqs) in
  [
    m "server.queue_wait_ms" "ms" (per_read (fun _ x -> x.queue_wait_ms));
    m "server.exec_ms" "ms" (per_read (fun _ x -> x.exec_ms));
    m "server.other_ms" "ms" (per_read (fun _ x -> x.total_ms -. x.queue_wait_ms -. x.exec_ms))
      ~note:"probe, prepare, cache probe, serialize";
    m "server.http_ms" "ms"
      (per_read (fun (o : Load.outcome) x -> ((o.finished -. o.sent) *. 1000.0) -. x.total_ms))
      ~note:"client latency - querylog total";
    m "server.cache_hit_ratio" "ratio"
      (delta (fun c -> c.Daemon.cache_hits) /. Float.max 1.0 (delta (fun c -> c.Daemon.requests)));
    m "server.gc_minor_per_req" "count" (delta (fun c -> c.Daemon.minor_gcs) /. requests);
    m "server.gc_major_per_req" "count" (delta (fun c -> c.Daemon.major_gcs) /. requests);
    m "server.cancelled" "count" (delta (fun c -> c.Daemon.cancelled));
    m "server.shed" "count" (delta (fun c -> c.Daemon.shed));
  ]

(* ---- step 2: the in-process replay ---- *)

let serial = { Engine.Planner.default_config with jobs = 1 }

(* the daemon's execution config: one job, the default 5 s deadline *)
let daemon_config = { serial with max_elapsed = Some 5.0 }

let inprocess st (w : serve_workload) ~warm_sqls =
  (* the daemon runs with telemetry on; so does its mirror here *)
  Telemetry.Control.enable ();
  let session = Clean.create st.start_db in
  let prepared = Server.Cache.create ~capacity:256 in
  let results = Server.Cache.create ~capacity:256 in
  let rows_out = ref [] in
  let read ~req sql =
    Spans.with_ ~req "request" (fun () ->
        let generation = Spans.with_ ~req "store.probe" (fun () -> Store.generation st.dir) in
        let ast = Spans.with_ ~req "sql.parse" (fun () -> Sql.Parser.parse_query sql) in
        let normalized =
          Spans.with_ ~req "sql.normalize" (fun () -> Sql.Pretty.query_to_string ast)
        in
        let prepared_ast =
          match Server.Cache.find prepared normalized with
          | Some p -> p
          | None ->
            let rewritten =
              Spans.with_ ~req "conquer.rewrite" (fun () ->
                  match Clean.rewrite session sql with
                  | Ok text -> text
                  | Error _ -> failwith ("not rewritable: " ^ sql))
            in
            let p = Spans.with_ ~req "sql.parse" (fun () -> Sql.Parser.parse_query rewritten) in
            Spans.with_ ~req "engine.plan" (fun () ->
                ignore (Engine.Database.plan (Clean.engine session) p));
            Server.Cache.add prepared normalized p;
            p
        in
        let key = Printf.sprintf "%s|g%d" normalized generation in
        match Server.Cache.find results key with
        | Some _ -> ()
        | None ->
          let rel, _ =
            Spans.with_ ~req "engine.exec" (fun () ->
                Clean.answers_ast_within ~config:daemon_config
                  ~cancel:(Engine.Cancel.create ()) session prepared_ast)
          in
          Server.Cache.add results key ();
          if req >= 0 then rows_out := float_of_int (Dirty.Relation.cardinality rel) :: !rows_out;
          (* off the daemon's path: the unbudgeted engine call that the
             in-process bench times *)
          Spans.with_ ~req "engine.exec_unbudgeted" (fun () ->
              Telemetry.Control.with_disabled (fun () ->
                  ignore
                    (Engine.Database.query_ast ~config:serial (Clean.engine session)
                       prepared_ast))))
  in
  List.iter (fun sql -> read ~req:(-1) sql) warm_sqls;
  Array.iter (fun (r : Load.request) -> read ~req:r.id r.sql) w.reqs;
  Telemetry.Control.disable ();
  let ids = read_ids w in
  let layer name = Util.median (Spans.self_ms_by_request ~reqs:ids name) in
  let names =
    [ "store.probe"; "sql.parse"; "sql.normalize"; "conquer.rewrite"; "engine.plan"; "engine.exec" ]
  in
  let path = List.map (fun n -> m (n ^ "_ms") "ms" (layer n)) names in
  ( path,
    [
      m "engine.exec_unbudgeted_ms" "ms" (layer "engine.exec_unbudgeted");
      (if !rows_out = [] then m "engine.rows_out" "rows" 0.0 ~note:"no request executed"
       else m "engine.rows_out" "rows" (Util.median !rows_out) ~note:"per executed request");
    ],
    Util.sum (List.map (fun x -> x.value) path) )

(* ---- step 3: single-layer probes ---- *)

let timed f =
  let t0 = Util.now () in
  let x = f () in
  (x, (Util.now () -. t0) *. 1000.0)

let reps n f = Util.median (List.init n (fun _ -> snd (timed f)))

let probe_span name f = Spans.with_ ~req:(-2) name f

(* Store, delta and session layers on a copy of the starting store:
   seeded update batches are applied and committed as plain deltas
   (below the compaction threshold), then recover and load replay that
   chain, and a compaction folds it. *)
let store_probes a ~start =
  let copy = Filename.concat a.work "store.probe" in
  Util.copy_dir start copy;
  let rng = Random.State.make [| a.seed; 9 |] in
  let db = ref (Store.load copy) in
  let applies = ref [] and commits = ref [] and sessions = ref [] in
  let csv_bytes = ref 0 in
  let journal0 = Store.journal_bytes copy in
  (* stay below the compaction threshold: these are plain deltas *)
  let commits_n = max 1 (min 6 (compact_every - 1 - Store.delta_chain_length copy)) in
  for _ = 1 to commits_n do
    let csv = Gen.batch_csv (Gen.update_batch rng !db ~ops:write_ops) in
    let batch = Dirty.Delta.of_rows (Dirty.Csv.parse_rows csv) in
    csv_bytes := !csv_bytes + String.length csv;
    let outcome, t = timed (fun () -> probe_span "dirty.delta_apply" (fun () -> Dirty.Delta.apply !db batch)) in
    applies := t :: !applies;
    commits := snd (timed (fun () -> probe_span "store.commit" (fun () -> Store.commit_delta copy batch))) :: !commits;
    db := outcome.Dirty.Delta.db;
    sessions := snd (timed (fun () -> probe_span "conquer.session" (fun () -> Clean.create !db))) :: !sessions
  done;
  let write_amp =
    float_of_int (Store.journal_bytes copy - journal0) /. float_of_int !csv_bytes
  in
  let recover = reps 3 (fun () -> probe_span "store.recover" (fun () -> Store.recover copy)) in
  let load = reps 3 (fun () -> probe_span "store.load" (fun () -> Store.load copy)) in
  let chain = Store.delta_chain_length copy in
  let compact = reps 3 (fun () -> probe_span "store.compact" (fun () -> Store.save copy !db)) in
  Util.rm_rf copy;
  [
    m "store.recover_ms" "ms" recover;
    m "store.load_ms" "ms" load;
    m "store.chain_length" "count" (float_of_int chain);
    m "store.commit_ms" "ms" (Util.median !commits);
    m "store.compact_ms" "ms" compact;
    m "store.write_amp" "ratio" write_amp ~note:"journal bytes per batch CSV byte";
    m "dirty.delta_apply_ms" "ms" (Util.median !applies);
    m "conquer.session_ms" "ms" (Util.median !sessions);
  ]

(* the deadline watchdog, and how far past its deadline the heaviest
   fig8 query (q9) unwinds *)
let engine_probes a db =
  let arm =
    reps 200 (fun () ->
        probe_span "engine.deadline_arm" (fun () ->
            Engine.Cancel.with_deadline ~seconds:5.0 (Engine.Cancel.create ()) ignore))
  in
  let session = Clean.create db in
  let sql = Gen.q9 (Random.State.make [| a.seed; 11 |]) in
  let overruns =
    List.init 3 (fun _ ->
        let _, full =
          timed (fun () -> Clean.answers_within ~config:daemon_config session sql)
        in
        let deadline = full /. 2.0 in
        let (_ : Clean.partial), took =
          timed (fun () ->
              probe_span "engine.cancel_overrun" (fun () ->
                  Clean.answers_within
                    ~config:{ serial with max_elapsed = Some (deadline /. 1000.0) }
                    session sql))
        in
        took -. deadline)
  in
  [
    m "engine.deadline_arm_ms" "ms" arm ~note:"Cancel.with_deadline around a no-op";
    m "engine.cancel_overrun_ms" "ms" (Util.median overruns) ~note:"q9 at half its run time";
  ]

(* the offline pipeline's layers, on [db] as loaded from its store *)
let offline_probes a db =
  let rows = float_of_int (Tpch.Datagen.total_rows db) in
  let propagated, propagate =
    timed (fun () -> probe_span "tpch.propagate" (fun () -> Tpch.Datagen.propagate_all db))
  in
  let dirty =
    List.filter_map
      (fun (t : Dirty_db.table) ->
        match Tpch.Schema.spec t.name with
        | spec when List.exists (fun (d : Tpch.Schema.table_spec) -> d.name = t.name) Tpch.Schema.dirty_tables ->
          Some (t, Untraced.descriptive_attrs spec)
        | _ -> None)
      (Dirty_db.tables propagated)
  in
  let matrices, matrix =
    timed (fun () ->
        probe_span "prob.matrix" (fun () ->
            List.map (fun ((t : Dirty_db.table), attrs) ->
                (Prob.Matrix.of_relation ~attrs t.relation, t.clustering)) dirty))
  in
  let _, representative =
    timed (fun () ->
        probe_span "prob.representative" (fun () ->
            List.map (fun (mx, c) -> Prob.Representative.all mx c) matrices))
  in
  let evals () =
    float_of_int (Option.value ~default:0 (Telemetry.Metrics.counter_value "prob.assign.distance_evals"))
  in
  Telemetry.Control.enable ();
  let e0 = evals () in
  let assigned, assign =
    timed (fun () -> probe_span "prob.assign" (fun () -> Tpch.Datagen.assign_probabilities propagated))
  in
  let e1 = evals () in
  Telemetry.Control.disable ();
  let out = Filename.concat a.work "probe.save" in
  Util.rm_rf out;
  let _, save = timed (fun () -> probe_span "store.save" (fun () -> Store.save out assigned)) in
  Util.rm_rf out;
  [
    m "tpch.propagate_ms" "ms" propagate;
    m "prob.matrix_ms" "ms" matrix ~note:"all dirty tables";
    m "prob.representative_ms" "ms" representative ~note:"all dirty tables";
    m "prob.assign_ms" "ms" assign;
    m "store.save_ms" "ms" save;
    m "prob.distance_evals_per_row" "count" ((e1 -. e0) /. rows);
  ]

(* ---- the traced run ---- *)

(* the store a traced run serves: the workload's own, or for
   offline-assign the store its pipeline writes *)
let traced_store a =
  if a.workload <> "offline-assign" then (make_serve_store a, None)
  else begin
    let input = Untraced.make_assign_store a in
    let db = Store.load input in
    let dir = Filename.concat a.work "store" in
    Util.rm_rf dir;
    Store.save dir (Tpch.Datagen.assign_probabilities (Tpch.Datagen.propagate_all db));
    (store_state dir, Some (input, db))
  end

let run a =
  let phases = Util.phases () in
  let timer name f = Util.timed_phase phases name f in
  let st, offline = timer "inputs" (fun () -> traced_store a) in
  let w =
    if offline = None then serve_workload a
    else serve_workload { a with workload = "serve-miss"; seconds = Float.min a.seconds 4.0 }
  in
  let plain = timer "replay" (fun () -> replay a st w ()) in
  let log = Filename.concat a.work "querylog.jsonl" in
  let logged = timer "logged replay" (fun () -> replay a st w ~query_log:log ()) in
  let untraced_p50 = Util.median plain.judged.read_ms in
  let traced_p50 = Util.median logged.judged.read_ms in
  let server = server_metrics w logged (query_log_records log) in
  let path, engine_extra, path_sum =
    timer "in-process replay" (fun () -> inprocess st w ~warm_sqls:(warm_set a @ w.hot_set))
  in
  let find name = (List.find (fun x -> x.name = name) server).value in
  let coverage = (path_sum +. find "server.http_ms" +. find "server.queue_wait_ms") /. untraced_p50 in
  (* q9 on the if=8 store outgrows memory before its deadline stops
     it, so the engine probes always run on the serve store *)
  let probe_store, probe_db, engine_db =
    match offline with
    | Some (input, db) ->
      ( input,
        db,
        Tpch.Datagen.assign_probabilities (Gen.generate Gen.serve_store ~seed:a.seed) )
    | None -> (st.dir, st.start_db, st.start_db)
  in
  let store, engine, offline_layers =
    timer "probes" (fun () ->
        let store = store_probes a ~start:probe_store in
        let engine = engine_probes a engine_db in
        (store, engine, offline_probes a probe_db))
  in
  Spans.write (Filename.concat a.work "spans.csv");
  let lags = plain.judged.lag_ms in
  let bench =
    [
      m "bench.gen_lag_ms" "ms" (Util.quantile lags 0.99) ~note:"p99 send lag, untraced replay";
      m "bench.trace_overhead" "ratio" (traced_p50 /. untraced_p50)
        ~note:(Printf.sprintf "p50 %.3f ms with query log / %.3f ms without" traced_p50 untraced_p50);
      m "bench.layer_coverage" "ratio" coverage ~note:"replayed layer medians + http + queue / p50";
    ]
  in
  let metrics =
    server
    @ [ List.find (fun x -> x.name = "store.probe_ms") path ]
    @ store
    @ List.filter (fun x -> x.name <> "store.probe_ms") path
    @ engine_extra @ engine @ offline_layers @ bench
  in
  let judged = merge_judged plain.judged logged.judged in
  let stamp =
    store_stamp
      (if offline = None then Gen.serve_store else Gen.assign_store)
      st.start_db st.dir
    @ [
        ("offered_rate_rps", Printf.sprintf "%g" w.rate);
        ("replayed_requests", string_of_int (Array.length w.reqs));
        ("daemon_flags", daemon_flags ^ "; traced replay adds --query-log");
        ("flush_policy", flush_policy);
        ("phase_s", Util.phase_report phases);
      ]
  in
  (metrics, judged, stamp)
