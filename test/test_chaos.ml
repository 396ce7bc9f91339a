(* Chaos harness: deterministic fault injection.

   The headline property: for EVERY operation in a [Store.save] trace,
   crashing exactly there and reloading yields a database that is
   byte-for-byte the old snapshot or the new one — never a mix — and
   per-cluster probabilities still sum to 1.  Exercised exhaustively
   over a fixed pair of databases and probabilistically over random
   databases and crash points, plus a randomized multi-fault schedule
   driven by CONQUER_FAULT_SEED.

   Also here: the retry/backoff laws (injected clock, satellite of the
   fault work) and query cancellation deadlines. *)

open Dirty

let v_i i = Value.Int i

(* ---- databases with 1/16-grain probabilities ----

   Sixteenths are exactly representable as floats and survive the CSV
   round-trip bit-for-bit, so "old or new, never a mix" can compare
   rendered values exactly and cluster sums come back to exactly 1.
   The generators live in [Fuzz.Dbgen] (store family), shared with the
   differential fuzzing harness so both suites fuzz the same space. *)

let table_of_clusters = Fuzz.Dbgen.store_table_of_clusters
let db_of_tables = Fuzz.Dbgen.db_of_tables

let fixed_old =
  db_of_tables
    [
      table_of_clusters "alpha"
        [ ("a1", [ (1, 10); (2, 6) ]); ("a2", [ (3, 16) ]) ];
      table_of_clusters "beta" [ ("b1", [ (7, 8); (8, 8) ]) ];
    ]

let fixed_new =
  db_of_tables
    [
      table_of_clusters "alpha" [ ("a1", [ (1, 16) ]) ];
      table_of_clusters "beta"
        [ ("b1", [ (7, 4); (9, 12) ]); ("b2", [ (5, 16) ]) ];
      table_of_clusters "gamma" [ ("g1", [ (0, 16) ]) ];
    ]

(* ---- snapshot comparison ---- *)

let db_fingerprint db =
  List.map
    (fun (t : Dirty_db.table) ->
      ( t.name,
        t.id_attr,
        t.prob_attr,
        Schema.names (Relation.schema t.relation),
        List.sort compare
          (List.map
             (fun row -> Array.to_list (Array.map Value.to_string row))
             (Array.to_list (Relation.rows t.relation))) ))
    (Dirty_db.tables db)

let db_equal a b = db_fingerprint a = db_fingerprint b

let cluster_sums_ok db =
  List.for_all
    (fun (t : Dirty_db.table) ->
      let schema = Relation.schema t.relation in
      let idi = Schema.index_of schema t.id_attr in
      let pi = Schema.index_of schema t.prob_attr in
      let sums = Hashtbl.create 8 in
      Relation.iter
        (fun row ->
          let key = Value.to_string row.(idi) in
          let p = Option.value (Value.to_float row.(pi)) ~default:nan in
          Hashtbl.replace sums key
            (p +. Option.value (Hashtbl.find_opt sums key) ~default:0.0))
        t.relation;
      Hashtbl.fold
        (fun _ sum ok -> ok && Float.abs (sum -. 1.0) < 1e-9)
        sums true)
    (Dirty_db.tables db)

(* ---- the crash-at-op harness ---- *)

(* operation count of "save db_new over a store holding db_old",
   learned from a recorded dry run in a scratch directory *)
let count_save_ops db_old db_new =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db_old;
      Fault.Io.reset ~record:true ();
      Store.save dir db_new;
      let n = Fault.Io.ops () in
      Fault.Io.reset ();
      n)

(* crash at operation [k] of the save, then check the invariants:
   the reloaded db is exactly old or new, cluster sums are intact, and
   a recovery sweep does not change what loads *)
let crash_and_check ?(faults = fun k -> [ (k, Fault.Io.Crash) ]) db_old db_new k
    =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db_old;
      Fault.Io.reset ();
      Fault.Io.arm (faults k);
      (match Store.save dir db_new with () -> () | exception _ -> ());
      Fault.Io.reset ();
      let loaded = Store.load dir in
      if not (db_equal loaded db_old || db_equal loaded db_new) then
        Alcotest.failf "fault at op %d: loaded db is neither old nor new" k;
      if not (cluster_sums_ok loaded) then
        Alcotest.failf "fault at op %d: cluster probability sums broken" k;
      ignore (Store.recover dir);
      let again = Store.load dir in
      if not (db_equal again loaded) then
        Alcotest.failf "fault at op %d: recover changed the loaded snapshot" k;
      if Store.recover dir <> [] then
        Alcotest.failf "fault at op %d: recover is not idempotent" k)

let test_crash_every_op () =
  let n = count_save_ops fixed_old fixed_new in
  Alcotest.(check bool) "save has a meaningful trace" true (n > 10);
  for k = 0 to n - 1 do
    crash_and_check fixed_old fixed_new k
  done

let test_crash_every_op_first_save () =
  (* no prior snapshot: the store directory must end up empty-loading
     (legacy Sys_error) or holding exactly the new db *)
  let n =
    Testutil.with_temp_dir (fun dir ->
        Fault.Io.reset ~record:true ();
        Store.save dir fixed_new;
        let n = Fault.Io.ops () in
        Fault.Io.reset ();
        n)
  in
  for k = 0 to n - 1 do
    Testutil.with_temp_dir (fun dir ->
        Fault.Io.reset ();
        Fault.Io.arm [ (k, Fault.Io.Crash) ];
        (match Store.save dir fixed_new with
        | () -> ()
        | exception _ -> ());
        Fault.Io.reset ();
        match Store.load dir with
        | db ->
          if not (db_equal db fixed_new) then
            Alcotest.failf "crash at op %d: partial first save became visible"
              k
        | exception Sys_error _ -> ())
  done

(* ---- QCheck: random databases, random crash points ---- *)

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

let db_gen = Fuzz.Dbgen.store_db_gen

let chaos_case_gen =
  let* db_old = db_gen in
  let* db_new = db_gen in
  let* crash_point = QCheck.Gen.int_range 0 10_000 in
  QCheck.Gen.return (db_old, db_new, crash_point)

let prop_crash_recovery_atomic =
  QCheck.Test.make ~count:220
    ~name:"crash during save: reload is exactly old or new"
    (QCheck.make chaos_case_gen)
    (fun (db_old, db_new, crash_point) ->
      let n = count_save_ops db_old db_new in
      crash_and_check db_old db_new (crash_point mod n);
      true)

(* ---- write-path crash matrix: delta commit and compaction ----

   Same discipline as the save matrix: crash at EVERY I/O operation of
   a delta append+commit, reload, and require exactly the base state
   or the updated state — never a mix, never a torn replay.  The delta
   record stores weights at full precision, so the updated comparison
   target is the in-memory [Delta.apply] image. *)

let fixed_batch =
  [
    Delta.Reassign
      { table = "alpha"; cluster = Value.String "a1"; weights = [| 0.25; 0.75 |] };
    Delta.Insert
      {
        table = "beta";
        row = [| Value.String "b2"; v_i 5; Value.Float (4.0 /. 16.0) |];
      };
    Delta.Delete { table = "alpha"; cluster = Value.String "a2"; member = 0 };
  ]

let count_delta_ops db batch =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db;
      Fault.Io.reset ~record:true ();
      ignore (Store.commit_delta dir batch);
      let n = Fault.Io.ops () in
      Fault.Io.reset ();
      n)

let crash_delta_and_check ?(faults = fun k -> [ (k, Fault.Io.Crash) ]) db batch
    k =
  let updated = (Delta.apply db batch).Delta.db in
  Testutil.with_temp_dir (fun dir ->
      Store.save dir db;
      Fault.Io.reset ();
      Fault.Io.arm (faults k);
      (match Store.commit_delta dir batch with
      | (_ : int) -> ()
      | exception _ -> ());
      Fault.Io.reset ();
      let loaded = Store.load dir in
      if not (db_equal loaded db || db_equal loaded updated) then
        Alcotest.failf "delta fault at op %d: loaded db is neither base nor updated" k;
      if not (cluster_sums_ok loaded) then
        Alcotest.failf "delta fault at op %d: cluster probability sums broken" k;
      ignore (Store.recover dir);
      let again = Store.load dir in
      if not (db_equal again loaded) then
        Alcotest.failf "delta fault at op %d: recover changed the loaded snapshot" k;
      if Store.recover dir <> [] then
        Alcotest.failf "delta fault at op %d: recover is not idempotent" k)

let test_crash_every_op_delta_commit () =
  let n = count_delta_ops fixed_old fixed_batch in
  Alcotest.(check bool) "delta commit has a meaningful trace" true (n > 5);
  for k = 0 to n - 1 do
    crash_delta_and_check fixed_old fixed_batch k
  done

(* crash at every op of the compacting save over a live delta chain:
   the chain replay and the compacted snapshot describe the same
   database, so the reload must equal it at every crash point, and the
   fallback chain must survive the sweep *)
let test_crash_every_op_compaction () =
  let setup dir =
    Store.save dir fixed_old;
    ignore (Store.commit_delta dir fixed_batch);
    Store.load dir
  in
  let n =
    Testutil.with_temp_dir (fun dir ->
        let current = setup dir in
        Fault.Io.reset ~record:true ();
        Store.save dir current;
        let n = Fault.Io.ops () in
        Fault.Io.reset ();
        n)
  in
  for k = 0 to n - 1 do
    Testutil.with_temp_dir (fun dir ->
        let current = setup dir in
        Fault.Io.reset ();
        Fault.Io.arm [ (k, Fault.Io.Crash) ];
        (match Store.save dir current with () -> () | exception _ -> ());
        Fault.Io.reset ();
        let loaded = Store.load dir in
        if not (db_equal loaded current) then
          Alcotest.failf
            "compaction fault at op %d: loaded db diverged from the chain" k;
        ignore (Store.recover dir);
        if not (db_equal (Store.load dir) current) then
          Alcotest.failf
            "compaction fault at op %d: recover broke the loadable state" k)
  done

(* ---- join-spill chaos (ROADMAP item 5 satellite) ----

   The Grace hash-join spill writes [.spill-*.tmp] partition files
   through [Fault.Io], so every fault the store crash matrix uses
   applies to it too.  The invariants: a faulted spill fails the query
   cleanly (an exception the callers map to exit 4 / HTTP 500 — never
   a wrong answer), the store directory the spill shares stays exactly
   as committed, and [Store.recover] sweeps crash debris idempotently.
   Non-crash faults (Enospc, torn writes) must leave no debris at all:
   the spill's own cleanup still runs. *)

let spill_engine () =
  let engine = Engine.Database.create () in
  let schema = Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ] in
  let rel n off =
    Relation.create schema
      (List.init n (fun i -> [| v_i (i mod 11); v_i (i + off) |]))
  in
  Engine.Database.add_relation engine ~name:"a" (rel 40 0);
  Engine.Database.add_relation engine ~name:"b" (rel 40 100);
  engine

let spill_query =
  Sql.Parser.parse_query "select a.v, b.v from a, b where a.k = b.k"

(* spill after 5 build rows, partitions living inside the store dir *)
let spill_config dir =
  {
    Engine.Planner.default_config with
    spill_rows = Some 5;
    spill_dir = Some dir;
  }

let rendered_rows rel =
  Relation.rows rel |> Array.to_list
  |> List.map (fun row -> Array.to_list (Array.map Value.to_string row))
  |> List.sort compare

let no_spill_debris dir =
  Array.for_all
    (fun f -> not (String.length f >= 7 && String.sub f 0 7 = ".spill-"))
    (Sys.readdir dir)

let count_spill_ops () =
  Testutil.with_temp_dir (fun dir ->
      let engine = spill_engine () in
      Fault.Io.reset ~record:true ();
      ignore (Engine.Database.query_ast ~config:(spill_config dir) engine
                spill_query);
      let n = Fault.Io.ops () in
      Fault.Io.reset ();
      n)

let test_spill_join_agrees () =
  Testutil.with_temp_dir (fun dir ->
      Store.save dir fixed_old;
      let engine = spill_engine () in
      let plain = Engine.Database.query_ast engine spill_query in
      let spilled =
        Engine.Database.query_ast ~config:(spill_config dir) engine
          spill_query
      in
      Alcotest.(check (list (list string)))
        "spilled join = in-memory join (bag)"
        (rendered_rows plain) (rendered_rows spilled);
      Alcotest.(check bool) "clean spill leaves no debris" true
        (no_spill_debris dir))

(* crash at every syscall of a spilled join sharing the store dir *)
let test_spill_crash_every_op () =
  let n = count_spill_ops () in
  Alcotest.(check bool) "spill has a meaningful trace" true (n > 5);
  let aborted = ref 0 in
  for k = 0 to n - 1 do
    Testutil.with_temp_dir (fun dir ->
        Fault.Io.reset ();
        Store.save dir fixed_old;
        let engine = spill_engine () in
        let plain = Engine.Database.query_ast engine spill_query in
        Fault.Io.arm [ (k, Fault.Io.Crash) ];
        (match
           Engine.Database.query_ast ~config:(spill_config dir) engine
             spill_query
         with
        | rel ->
          (* late crash points land inside the best-effort cleanup,
             after the answer is complete — it must still be right *)
          if rendered_rows rel <> rendered_rows plain then
            Alcotest.failf "crash at op %d: wrong answer" k
        | exception _ -> incr aborted);
        Fault.Io.reset ();
        (* the store is untouched by the dead spill *)
        let loaded = Store.load dir in
        if not (db_equal loaded fixed_old) then
          Alcotest.failf "spill crash at op %d: store changed" k;
        if not (cluster_sums_ok loaded) then
          Alcotest.failf "spill crash at op %d: cluster sums broken" k;
        (* recover sweeps the debris, idempotently *)
        ignore (Store.recover dir);
        if not (no_spill_debris dir) then
          Alcotest.failf "spill crash at op %d: recover left debris" k;
        if Store.recover dir <> [] then
          Alcotest.failf "spill crash at op %d: recover not idempotent" k;
        if not (db_equal (Store.load dir) fixed_old) then
          Alcotest.failf "spill crash at op %d: recover changed the store" k;
        (* and the healed directory runs the same query to completion *)
        let after =
          Engine.Database.query_ast ~config:(spill_config dir) engine
            spill_query
        in
        if rendered_rows after <> rendered_rows plain then
          Alcotest.failf "spill crash at op %d: rerun diverged" k)
  done;
  Alcotest.(check bool) "crashes mid-spill abort the query" true (!aborted > 0)

(* non-crash faults: the process lives on, so the spill's own cleanup
   must remove every partition file and the query must fail with the
   I/O error, not a wrong answer *)
let test_spill_enospc_and_torn_writes () =
  let check_fault name arm =
    Testutil.with_temp_dir (fun dir ->
        Fault.Io.reset ();
        Store.save dir fixed_old;
        let engine = spill_engine () in
        arm ();
        (match
           Engine.Database.query_ast ~config:(spill_config dir) engine
             spill_query
         with
        | _ -> Alcotest.failf "%s: spilled query succeeded" name
        | exception Fault.Io.Io_error _ -> ()
        | exception e ->
          Alcotest.failf "%s: unexpected exception %s" name
            (Printexc.to_string e));
        Fault.Io.reset ();
        Alcotest.(check bool) (name ^ ": no debris") true
          (no_spill_debris dir);
        if not (db_equal (Store.load dir) fixed_old) then
          Alcotest.failf "%s: store changed" name;
        if Store.recover dir <> [] then
          Alcotest.failf "%s: recover found debris it should not" name)
  in
  (* the disk filling up under several different partition writes *)
  List.iter
    (fun nth ->
      check_fault
        (Printf.sprintf "enospc at write %d" nth)
        (fun () -> Fault.Io.arm_nth_write nth Fault.Io.Enospc))
    [ 0; 3; 7 ];
  (* a torn partition write surfaces as a torn-frame read error *)
  List.iter
    (fun nth ->
      check_fault
        (Printf.sprintf "torn write %d" nth)
        (fun () -> Fault.Io.arm_nth_write nth (Fault.Io.Torn_write 3)))
    [ 0; 2; 5 ]

(* random databases, random grid batches, random crash points *)
let delta_chaos_case_gen =
  let* db = db_gen in
  let* batch, _ = Fuzz.Updategen.batch_gen db ~len:2 in
  let* crash_point = QCheck.Gen.int_range 0 10_000 in
  QCheck.Gen.return (db, batch, crash_point)

let prop_crash_delta_commit_atomic =
  QCheck.Test.make ~count:120
    ~name:"crash during delta commit: reload is exactly base or updated"
    (QCheck.make delta_chaos_case_gen)
    (fun (db, batch, crash_point) ->
      QCheck.assume (batch <> []);
      let n = count_delta_ops db batch in
      crash_delta_and_check db batch (crash_point mod n);
      true)

let test_randomized_schedule_delta () =
  let seed =
    match Fault.Io.seed_from_env () with Some s -> s | None -> 1337
  in
  Printf.printf "delta chaos schedule seed: CONQUER_FAULT_SEED=%d\n%!" seed;
  let n = count_delta_ops fixed_old fixed_batch in
  for round = 0 to 19 do
    crash_delta_and_check
      ~faults:(fun _ -> Fault.Io.random_schedule ~seed:(seed + round) ~ops:n)
      fixed_old fixed_batch round
  done

(* ---- randomized multi-fault schedules (CONQUER_FAULT_SEED) ---- *)

let test_randomized_schedule () =
  let seed =
    match Fault.Io.seed_from_env () with Some s -> s | None -> 421
  in
  (* log the seed so a CI failure is reproducible *)
  Printf.printf "chaos schedule seed: CONQUER_FAULT_SEED=%d\n%!" seed;
  let n = count_save_ops fixed_old fixed_new in
  for round = 0 to 19 do
    crash_and_check
      ~faults:(fun _ ->
        Fault.Io.random_schedule ~seed:(seed + round) ~ops:n)
      fixed_old fixed_new round
  done

(* ---- retry/backoff laws (injected clock) ---- *)

let transient_error () =
  Fault.Io.Io_error
    { op = Fault.Io.Write; path = "x"; msg = "injected"; transient = true }

let retry_case_gen =
  let* attempts = QCheck.Gen.int_range 1 6 in
  let* failures = QCheck.Gen.int_range 0 (attempts - 1) in
  let* base_ms = QCheck.Gen.int_range 1 100 in
  let* cap_ms = QCheck.Gen.int_range 1 400 in
  QCheck.Gen.return (attempts, failures, base_ms, cap_ms)

let prop_retry_backoff_schedule =
  QCheck.Test.make ~count:200
    ~name:"retry: attempt count and backoff sequence are exactly as scheduled"
    (QCheck.make retry_case_gen)
    (fun (attempts, failures, base_ms, cap_ms) ->
      let policy =
        {
          Fault.Retry.attempts;
          base_backoff = float_of_int base_ms /. 1000.0;
          max_backoff = float_of_int cap_ms /. 1000.0;
          jitter = 0.0 (* exact-sequence assertions need no jitter *);
        }
      in
      let calls = ref 0 in
      let sleeps = ref [] in
      let result =
        Fault.Retry.with_retry ~policy
          ~sleep:(fun s -> sleeps := s :: !sleeps)
          (fun () ->
            incr calls;
            if !calls <= failures then raise (transient_error ());
            !calls)
      in
      let expected_sleeps =
        List.init failures (fun i ->
            Float.min policy.max_backoff
              (policy.base_backoff *. (2.0 ** float_of_int i)))
      in
      result = failures + 1
      && !calls = failures + 1
      && List.rev !sleeps = expected_sleeps)

let prop_retry_gives_up =
  QCheck.Test.make ~count:100
    ~name:"retry: exhausted attempts give up after the scheduled sleeps"
    (QCheck.make (QCheck.Gen.int_range 1 6))
    (fun attempts ->
      let policy =
        {
          Fault.Retry.attempts;
          base_backoff = 0.01;
          max_backoff = 0.04;
          jitter = 0.0;
        }
      in
      let calls = ref 0 in
      let sleeps = ref 0 in
      match
        Fault.Retry.with_retry ~policy
          ~sleep:(fun _ -> incr sleeps)
          (fun () ->
            incr calls;
            raise (transient_error ()))
      with
      | _ -> false
      | exception Fault.Retry.Gave_up { attempts = a; _ } ->
        attempts > 1 && a = attempts && !calls = attempts
        && !sleeps = attempts - 1
      | exception Fault.Io.Io_error _ ->
        (* a single-attempt policy re-raises the original error *)
        attempts = 1 && !calls = 1 && !sleeps = 0)

(* jittered delays: for any jitter factor and any RNG draw, the sleep
   stays within [0, cap] and never exceeds the deterministic ceiling
   for that attempt *)
let prop_retry_jitter_within_cap =
  let gen =
    let* attempts = QCheck.Gen.int_range 2 6 in
    let* base_ms = QCheck.Gen.int_range 1 100 in
    let* cap_ms = QCheck.Gen.int_range 1 400 in
    let* jitter = QCheck.Gen.float_bound_inclusive 1.0 in
    let* draw = QCheck.Gen.float_bound_inclusive 1.0 in
    QCheck.Gen.return (attempts, base_ms, cap_ms, jitter, draw)
  in
  QCheck.Test.make ~count:300
    ~name:"retry: jittered delays stay within [0, cap] and under the ceiling"
    (QCheck.make gen)
    (fun (attempts, base_ms, cap_ms, jitter, draw) ->
      let policy =
        {
          Fault.Retry.attempts;
          base_backoff = float_of_int base_ms /. 1000.0;
          max_backoff = float_of_int cap_ms /. 1000.0;
          jitter;
        }
      in
      List.for_all
        (fun i ->
          let d = Fault.Retry.jittered_backoff ~rng:(fun () -> draw) policy i in
          let ceiling = Fault.Retry.backoff policy i in
          0.0 <= d && d <= policy.max_backoff +. 1e-12 && d <= ceiling +. 1e-12)
        (List.init (attempts - 1) Fun.id))

(* with jitter off, the jittered delay is exactly the deterministic
   schedule, whatever the RNG says *)
let prop_retry_no_jitter_is_deterministic =
  QCheck.Test.make ~count:100
    ~name:"retry: jitter=0 reproduces the deterministic backoff exactly"
    (QCheck.make (QCheck.Gen.float_bound_inclusive 1.0))
    (fun draw ->
      let policy = { Fault.Retry.default_policy with jitter = 0.0 } in
      List.for_all
        (fun i ->
          Fault.Retry.jittered_backoff ~rng:(fun () -> draw) policy i
          = Fault.Retry.backoff policy i)
        [ 0; 1; 2; 3; 7 ])

(* ---- cancellation deadlines ---- *)

(* a deadline that has already passed (zero, negative, or at/below
   2ms) must trip the token before the wrapped function runs — not
   when the deadline timer next wakes *)
let test_expired_deadline_trips_before_run () =
  List.iter
    (fun seconds ->
      let tok = Engine.Cancel.create () in
      let observed_tripped = ref false in
      let ran = ref false in
      (try
         Engine.Cancel.with_deadline ~seconds tok (fun () ->
             ran := true;
             observed_tripped := Engine.Cancel.cancelled tok;
             Engine.Cancel.check tok)
       with Engine.Cancel.Cancelled _ -> ());
      Alcotest.(check bool)
        (Printf.sprintf "wrapped function still runs (deadline %gs)" seconds)
        true !ran;
      Alcotest.(check bool)
        (Printf.sprintf "token tripped before the function ran (deadline %gs)"
           seconds)
        true !observed_tripped;
      Alcotest.(check bool)
        (Printf.sprintf "token still tripped after (deadline %gs)" seconds)
        true
        (Engine.Cancel.cancelled tok))
    [ 0.0; -1.0; 0.001; 0.002 ]

let test_parallel_cancel_within_deadline () =
  let tok = Engine.Cancel.create () in
  let t0 = Unix.gettimeofday () in
  (match
     Engine.Cancel.with_deadline ~seconds:0.1 tok (fun () ->
         (* 64 x 20ms on 4 domains = ~320ms of work, cancelled at 100ms *)
         Engine.Parallel.run ~cancel:tok ~jobs:4 64 (fun _ ->
             Unix.sleepf 0.02))
   with
  | () -> Alcotest.fail "parallel region outran its deadline uncancelled"
  | exception Engine.Cancel.Cancelled _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "cancelled within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true (elapsed < 0.2)

(* a database whose cross product is far too large to finish within
   the deadline, so cancellation must interrupt it mid-operator *)
let big_cross_db () =
  let engine = Engine.Database.create () in
  let schema = Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ] in
  let rel n =
    Relation.create schema (List.init n (fun i -> [| v_i i; v_i (i * 7) |]))
  in
  Engine.Database.add_relation engine ~name:"a" (rel 3000);
  Engine.Database.add_relation engine ~name:"b" (rel 3000);
  engine

let cross_query =
  Sql.Parser.parse_query "select a.v, b.v from a, b where a.v + b.v > -1"

let cancel_config jobs seconds =
  {
    Engine.Planner.default_config with
    jobs;
    max_elapsed = Some seconds;
  }

(* a budgeted query whose time budget is already spent returns an
   empty cancelled partial, through the normal degrading path *)
let test_expired_deadline_query_degrades () =
  let engine = big_cross_db () in
  let rel, { Engine.Database.truncated; cancelled } =
    Engine.Database.query_ast_within ~config:(cancel_config 4 0.0) engine
      cross_query
  in
  Alcotest.(check bool) "cancelled" true cancelled;
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "no rows produced" 0 (Relation.cardinality rel)

let test_query_cancelled_partial_within_deadline () =
  let engine = big_cross_db () in
  let deadline = 0.3 in
  let t0 = Unix.gettimeofday () in
  let rel, { Engine.Database.truncated; cancelled } =
    Engine.Database.query_ast_within
      ~config:(cancel_config 4 deadline)
      engine cross_query
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "cancelled" true cancelled;
  Alcotest.(check bool) "not row-truncated" false truncated;
  Alcotest.(check bool) "partial, not the full cross product" true
    (Relation.cardinality rel < 3000 * 3000);
  Alcotest.(check bool)
    (Printf.sprintf "returned within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true
    (elapsed < 2.0 *. deadline)

let test_query_cancelled_raise_within_deadline () =
  let engine = big_cross_db () in
  let deadline = 0.3 in
  let t0 = Unix.gettimeofday () in
  (match
     Engine.Database.query_ast ~config:(cancel_config 4 deadline) engine
       cross_query
   with
  | _ -> Alcotest.fail "cross product outran its deadline uncancelled"
  | exception Engine.Cancel.Cancelled _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "raised within 2x deadline (%.0fms)" (elapsed *. 1000.))
    true
    (elapsed < 2.0 *. deadline)

(* Bounded cancellation on the serve soak's heavy query: a ~1.3M-row
   cross product of a 48-row table thrice and a 12-row one, filtered
   on all four.  Whichever operator the deadline lands in — the
   per-row cross loop, building its result, a chunked or row-path
   filter or projection at either jobs count — the query must unwind
   within 100ms of its deadline, in both budget modes.  (A run may
   also finish uncancelled before the deadline; the bound still
   holds.) *)
let slow_sql =
  "select a.val from alpha a, alpha b, alpha c, beta d where a.val + b.val + \
   c.val + d.val > -1"

let slow_sql_db () =
  let engine = Engine.Database.create () in
  let cluster i = (Printf.sprintf "c%d" i, [ (i, 10); (i + 1, 6) ]) in
  List.iter
    (fun (name, clusters) ->
      let t = table_of_clusters name (List.init clusters cluster) in
      Engine.Database.add_relation engine ~name t.Dirty_db.relation)
    [ ("alpha", 24); ("beta", 6) ];
  engine

let test_slow_sql_unwinds_within_bound () =
  let engine = slow_sql_db () in
  let q = Sql.Parser.parse_query slow_sql in
  List.iter
    (fun (deadline, jobs, chunked, raise_mode) ->
      let config =
        {
          Engine.Planner.default_config with
          jobs;
          chunked;
          max_elapsed = Some deadline;
        }
      in
      let t0 = Unix.gettimeofday () in
      (if raise_mode then
         match Engine.Database.query_ast ~config engine q with
         | _ | (exception Engine.Cancel.Cancelled _) -> ()
       else ignore (Engine.Database.query_ast_within ~config engine q));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "deadline %gs jobs=%d chunked=%b %s: %.0fms" deadline
           jobs chunked
           (if raise_mode then "raise" else "truncate")
           (elapsed *. 1000.))
        true
        (elapsed <= deadline +. 0.1))
    (List.concat_map
       (fun deadline ->
         List.concat_map
           (fun jobs ->
             List.concat_map
               (fun chunked ->
                 List.map
                   (fun raise_mode -> (deadline, jobs, chunked, raise_mode))
                   [ false; true ])
               [ true; false ])
           [ 1; 2 ])
       [ 0.3; 1.0 ])

(* A 1s deadline landing in a large ORDER BY or DISTINCT: both run in
   one domain as a single sort or hash pass (several seconds
   uncancelled here), so they must poll the token themselves — the
   sort once per morsel of comparisons, the distinct once per morsel
   of rows.  The query must unwind within 100ms of the deadline in
   both budget modes at jobs 1 and 2, reporting the cancellation.  The
   plans are hand-built so the deadline lands in the operator, not in
   a pivot below it. *)
let test_sort_distinct_unwind_within_bound () =
  let deadline = 1.0 in
  let engine = Engine.Database.create () in
  let st = Random.State.make [| 11 |] in
  Engine.Database.add_relation engine ~name:"sorted"
    (Relation.create
       (Schema.make [ ("k", Value.TInt); ("z", Value.TInt) ])
       (List.init 400_000 (fun _ ->
            [| v_i (Random.State.int st 1_000_000_000); v_i 0 |])));
  (* every row distinct, each hashing four shared 4KB strings *)
  let long = Value.String (String.make 4096 'x') in
  Engine.Database.add_relation engine ~name:"wide"
    (Relation.create
       (Schema.make
          (("k", Value.TInt)
          :: List.init 4 (fun j -> (Printf.sprintf "s%d" j, Value.TString))))
       (List.init 300_000 (fun i -> [| v_i i; long; long; long; long |])));
  let scan table = Engine.Plan.Scan { table; alias = table } in
  let sort =
    (* 40 equal leading keys make every comparison walk all of them *)
    Engine.Plan.Sort
      {
        input = scan "sorted";
        keys =
          List.init 40 (fun _ -> (Sql.Parser.parse_expr "sorted.z", false))
          @ [ (Sql.Parser.parse_expr "sorted.k", false) ];
      }
  in
  let distinct = Engine.Plan.Distinct (scan "wide") in
  List.iter
    (fun (name, plan, jobs, raise_mode) ->
      let tok = Engine.Cancel.create () in
      let budget =
        Engine.Budget.create
          ~mode:
            (if raise_mode then Engine.Budget.Raise else Engine.Budget.Truncate)
          ~cancel:tok
          { max_rows = None; max_elapsed = Some deadline }
      in
      let label =
        Printf.sprintf "%s jobs=%d %s" name jobs
          (if raise_mode then "raise" else "truncate")
      in
      let t0 = Unix.gettimeofday () in
      let outcome =
        match
          Engine.Cancel.with_deadline ~seconds:deadline tok (fun () ->
              Engine.Database.run_plan ~budget ~jobs engine plan)
        with
        | rel -> `Rows (Relation.cardinality rel)
        | exception Engine.Cancel.Cancelled _ -> `Cancelled
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match (raise_mode, outcome) with
      | true, `Cancelled -> ()
      | false, `Rows n ->
        Alcotest.(check bool) (label ^ ": reported cancelled") true
          (Engine.Budget.cancelled budget);
        Alcotest.(check int) (label ^ ": empty cancelled partial") 0 n
      | true, `Rows _ -> Alcotest.failf "%s: ran past its deadline" label
      | false, `Cancelled -> Alcotest.failf "%s: Cancelled escaped" label);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0fms for a %gs deadline" label (elapsed *. 1000.)
           deadline)
        true
        (elapsed <= deadline +. 0.1))
    (List.concat_map
       (fun (name, plan) ->
         List.concat_map
           (fun jobs ->
             List.map
               (fun raise_mode -> (name, plan, jobs, raise_mode))
               [ false; true ])
           [ 1; 2 ])
       [ ("ORDER BY", sort); ("DISTINCT", distinct) ])

(* Deadlines share one timer domain, so far more regions than the
   runtime's 128-domain limit can be armed at once.  Every token must
   trip for its own deadline (the reason names it), never before it,
   and promptly after it.  Deadlines are armed out of order, so some
   arms must wake the timer for an earlier deadline. *)
let test_deadline_regions_beyond_domain_limit () =
  let n = 200 in
  let seconds i = 0.05 +. (0.001 *. float_of_int (i * 37 mod n)) in
  let toks = Array.init n (fun _ -> Engine.Cancel.create ()) in
  let seen = Array.make n infinity in
  (* the deadlines' own monotonic clock; each trip is timed after it is
     observed, so [seen] is never earlier than the trip itself *)
  let t0 = Engine.Cancel.now () in
  let rec nest i =
    if i < n then
      Engine.Cancel.with_deadline ~seconds:(seconds i) toks.(i) (fun () ->
          nest (i + 1))
    else
      let give_up = t0 +. 5.0 in
      while
        Array.exists (fun s -> s = infinity) seen
        && Engine.Cancel.now () < give_up
      do
        Unix.sleepf 0.0005;
        Array.iteri
          (fun j tok ->
            if seen.(j) = infinity && Engine.Cancel.cancelled tok then
              seen.(j) <- Engine.Cancel.now () -. t0)
          toks
      done
  in
  nest 0;
  Array.iteri
    (fun i tok ->
      let d = seconds i in
      Alcotest.(check (option string))
        (Printf.sprintf "region %d tripped by its own deadline" i)
        (Some (Printf.sprintf "time budget of %gs exceeded" d))
        (Engine.Cancel.reason tok);
      Alcotest.(check bool)
        (Printf.sprintf "region %d: deadline %.0fms, seen at %.0fms" i
           (d *. 1000.) (seen.(i) *. 1000.))
        true
        (seen.(i) >= d && seen.(i) <= d +. 0.1))
    toks

(* the timer domain exits once it has idled with no deadline armed;
   the next arm must start a fresh one that still trips on time *)
let test_deadline_after_timer_idles_out () =
  let arm_and_wait seconds =
    let tok = Engine.Cancel.create () in
    let t0 = Unix.gettimeofday () in
    let running =
      Engine.Cancel.with_deadline ~seconds tok (fun () ->
          let running = Engine.Cancel.timer_running () in
          while
            (not (Engine.Cancel.cancelled tok))
            && Unix.gettimeofday () -. t0 < 5.0
          do
            Unix.sleepf 0.001
          done;
          running)
    in
    (running, Engine.Cancel.cancelled tok, Unix.gettimeofday () -. t0)
  in
  ignore (arm_and_wait 0.01);
  (* it idles out a tenth of a second after its last arm *)
  let give_up = Unix.gettimeofday () +. 2.0 in
  while Engine.Cancel.timer_running () && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "timer domain idled out" false
    (Engine.Cancel.timer_running ());
  let running, tripped, elapsed = arm_and_wait 0.05 in
  Alcotest.(check bool) "the next arm restarted it" true running;
  Alcotest.(check bool) "tripped after the idle exit" true tripped;
  Alcotest.(check bool)
    (Printf.sprintf "on time (%.0fms for a 50ms deadline)" (elapsed *. 1000.))
    true
    (elapsed >= 0.05 && elapsed <= 0.15)

(* A deadline that expires after the row limit has already stopped a
   Truncate-mode budget is still reported as a cancellation, never as
   an (empty) row truncation.  The inner cross product runs into the
   row limit; the deadline then expires while the outer operand is
   fetched (the catalog waits for the trip), so the filter over that
   operand observes it at its first chunk. *)
let test_deadline_after_row_truncation () =
  let relation name clusters =
    (table_of_clusters name
       (List.init clusters (fun i ->
            (Printf.sprintf "c%d" i, [ (i, 10); (i + 1, 6) ]))))
      .Dirty_db.relation
  in
  let alpha = relation "alpha" 24 and beta = relation "beta" 6 in
  let tok = Engine.Cancel.create () in
  let budget =
    Engine.Budget.create ~mode:Engine.Budget.Truncate ~cancel:tok
      { max_rows = Some 1000; max_elapsed = None }
  in
  let exhausted_at_fetch = ref false in
  let catalog =
    {
      Engine.Exec.relation =
        (function
        | "alpha" -> alpha
        | "beta" ->
          exhausted_at_fetch := Engine.Budget.exhausted budget;
          let t0 = Unix.gettimeofday () in
          while
            (not (Engine.Cancel.cancelled tok))
            && Unix.gettimeofday () -. t0 < 5.0
          do
            Unix.sleepf 0.001
          done;
          beta
        | _ -> raise Not_found);
      index = (fun _ _ -> None);
    }
  in
  let scan table alias = Engine.Plan.Scan { table; alias } in
  let plan =
    Engine.Plan.Cross
      ( Engine.Plan.Cross (scan "alpha" "a", scan "alpha" "b"),
        Engine.Plan.Filter
          {
            input = scan "beta" "d";
            pred = Sql.Parser.parse_expr "d.val > -1";
          } )
  in
  let rel =
    Engine.Cancel.with_deadline ~seconds:0.05 tok (fun () ->
        Engine.Exec.run ~budget ~jobs:1 ~chunked:false catalog plan)
  in
  Alcotest.(check bool) "row limit hit before the deadline" true
    !exhausted_at_fetch;
  Alcotest.(check bool) "reported cancelled" true (Engine.Budget.cancelled budget);
  Alcotest.(check bool) "not reported truncated" false
    (Engine.Budget.truncated budget);
  Alcotest.(check int) "empty cancelled partial" 0 (Relation.cardinality rel)

let test_cancellation_counter () =
  Telemetry.Control.with_enabled @@ fun () ->
  let before =
    Telemetry.Metrics.count
      (Telemetry.Metrics.counter "engine.cancel.cancellations")
  in
  let tok = Engine.Cancel.create () in
  Engine.Cancel.cancel ~reason:"test" tok;
  Engine.Cancel.cancel ~reason:"again" tok;
  (* second cancel of the same token is a no-op *)
  let after =
    Telemetry.Metrics.count
      (Telemetry.Metrics.counter "engine.cancel.cancellations")
  in
  Alcotest.(check int) "one cancellation counted" (before + 1) after;
  Alcotest.(check (option string)) "first reason wins" (Some "test")
    (Engine.Cancel.reason tok)

let () =
  let qcheck = QCheck_alcotest.to_alcotest ~long:false in
  Alcotest.run "chaos"
    [
      ( "store-crash",
        [
          Alcotest.test_case "crash at every op of a re-save" `Quick
            test_crash_every_op;
          Alcotest.test_case "crash at every op of a first save" `Quick
            test_crash_every_op_first_save;
          qcheck prop_crash_recovery_atomic;
          Alcotest.test_case "randomized fault schedules" `Quick
            test_randomized_schedule;
        ] );
      ( "write-path-crash",
        [
          Alcotest.test_case "crash at every op of a delta commit" `Quick
            test_crash_every_op_delta_commit;
          Alcotest.test_case "crash at every op of a compacting save" `Quick
            test_crash_every_op_compaction;
          qcheck prop_crash_delta_commit_atomic;
          Alcotest.test_case "randomized fault schedules over delta commits"
            `Quick test_randomized_schedule_delta;
        ] );
      ( "join-spill",
        [
          Alcotest.test_case "spilled join agrees, no debris" `Quick
            test_spill_join_agrees;
          Alcotest.test_case "crash at every op of a spilled join" `Quick
            test_spill_crash_every_op;
          Alcotest.test_case "enospc and torn partition writes" `Quick
            test_spill_enospc_and_torn_writes;
        ] );
      ( "retry",
        [
          qcheck prop_retry_backoff_schedule;
          qcheck prop_retry_gives_up;
          qcheck prop_retry_jitter_within_cap;
          qcheck prop_retry_no_jitter_is_deterministic;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "parallel region cancelled within 2x deadline"
            `Quick test_parallel_cancel_within_deadline;
          Alcotest.test_case "expired deadline trips before the function runs"
            `Quick test_expired_deadline_trips_before_run;
          Alcotest.test_case "expired deadline degrades to empty partial"
            `Quick test_expired_deadline_query_degrades;
          Alcotest.test_case "budgeted query degrades to cancelled partial"
            `Quick test_query_cancelled_partial_within_deadline;
          Alcotest.test_case "raise-mode query cancelled within 2x deadline"
            `Quick test_query_cancelled_raise_within_deadline;
          Alcotest.test_case "cancellations counter and first-reason-wins"
            `Quick test_cancellation_counter;
          Alcotest.test_case "200 deadline regions beyond the domain limit"
            `Quick test_deadline_regions_beyond_domain_limit;
          Alcotest.test_case "deadline timer restarts after idling out"
            `Quick test_deadline_after_timer_idles_out;
          Alcotest.test_case "deadline after row truncation reports cancelled"
            `Quick test_deadline_after_row_truncation;
          Alcotest.test_case "slow_sql unwinds within deadline + 100ms"
            `Slow test_slow_sql_unwinds_within_bound;
          Alcotest.test_case
            "ORDER BY and DISTINCT unwind within deadline + 100ms" `Slow
            test_sort_distinct_unwind_within_bound;
        ] );
    ]
