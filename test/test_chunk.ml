(* Columnar chunk executor tests: the Chunk batch representation
   itself, the float group-key corner cases (-0.0 vs 0.0, NaN), and
   the executor-level equivalences — chunked jobs=1 must be
   bit-identical to chunked jobs=4, and the chunked executor must
   agree with the row-at-a-time one exactly on everything but the last
   bits of multi-chunk float aggregate sums (so the exact comparisons
   below stick to int aggregates).

   [Chunk.default_rows] is shrunk to 7 so even the small relations
   here span several chunks (groups straddle chunk boundaries), and
   [Parallel.min_rows_per_chunk] to 2 so the parallel paths engage. *)

open Dirty

let () = Engine.Parallel.min_rows_per_chunk := 2
let () = Engine.Chunk.default_rows := 7

let v_i i = Value.Int i
let v_f f = Value.Float f
let v_s s = Value.String s

let config ?(chunked = true) jobs =
  { Engine.Planner.default_config with jobs; chunked }

(* exact relational equality under Value.compare: same schema names,
   same rows in the same order *)
let check_same_relation msg expected actual =
  Alcotest.(check (list string))
    (msg ^ ": schema")
    (Schema.names (Relation.schema expected))
    (Schema.names (Relation.schema actual));
  Alcotest.(check int)
    (msg ^ ": cardinality")
    (Relation.cardinality expected) (Relation.cardinality actual);
  Relation.rows expected
  |> Array.iteri (fun i row ->
         let row' = Relation.get actual i in
         Alcotest.(check int) (Printf.sprintf "%s: row %d arity" msg i)
           (Array.length row) (Array.length row');
         Array.iteri
           (fun j v ->
             if Value.compare v row'.(j) <> 0 then
               Alcotest.failf "%s: row %d col %d: %s <> %s" msg i j
                 (Value.to_string v)
                 (Value.to_string row'.(j)))
           row)

(* stricter: floats must agree bit for bit (Value.compare treats -0.0
   and 0.0 as equal, which would mask a sign flip) *)
let check_bitwise_relation msg expected actual =
  check_same_relation msg expected actual;
  Relation.rows expected
  |> Array.iteri (fun i row ->
         let row' = Relation.get actual i in
         Array.iteri
           (fun j v ->
             match (v, row'.(j)) with
             | Value.Float a, Value.Float b
               when Int64.bits_of_float a <> Int64.bits_of_float b ->
               Alcotest.failf "%s: row %d col %d: %h <> %h (bitwise)" msg i j a
                 b
             | _ -> ())
           row)

(* ---- the Chunk representation ---- *)

let mixed_rows =
  [|
    [| v_i 1; v_f (-0.0); v_s "ab"; Value.Bool true; Value.Date 7; v_i 9 |];
    [| v_i 2; v_f Float.nan; v_s "cd"; Value.Null; Value.Date 8; v_f 0.5 |];
    [| Value.Null; v_f 0.0; v_s "ab"; Value.Bool false; Value.Null; v_s "x" |];
    [| v_i 4; Value.Null; Value.Null; Value.Bool true; Value.Date 9; Value.Null |];
    [| v_i 5; v_f 2.5; v_s "ef"; Value.Bool false; Value.Date 7; v_i 3 |];
  |]

let bits v = Int64.bits_of_float v

let check_value msg expected actual =
  match (expected, actual) with
  | Value.Float a, Value.Float b ->
    if bits a <> bits b then
      Alcotest.failf "%s: float %h <> %h (bitwise)" msg a b
  | _ ->
    if expected <> actual then
      Alcotest.failf "%s: %s <> %s" msg
        (Value.to_string expected) (Value.to_string actual)

let test_round_trip () =
  (* every kind of column — int, float (with -0.0 and NaN), dictionary
     string, bool, date, mixed/boxed — plus nulls in each, must
     survive the pivot to columns and back bit-exactly *)
  let ch =
    Engine.Chunk.of_rows mixed_rows ~lo:0 ~len:(Array.length mixed_rows)
      ~arity:6
  in
  Alcotest.(check int) "length" 5 ch.Engine.Chunk.length;
  let back = Engine.Chunk.rows_of ch in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          check_value (Printf.sprintf "cell %d.%d" i j) v back.(i).(j))
        row)
    mixed_rows;
  (* single cells through the accessor too *)
  check_value "nan cell" (v_f Float.nan) (Engine.Chunk.row ch 1).(1);
  check_value "neg zero cell" (v_f (-0.0)) (Engine.Chunk.row ch 0).(1)

let test_gather () =
  let ch = Engine.Chunk.of_rows mixed_rows ~lo:0 ~len:5 ~arity:6 in
  let picked = Engine.Chunk.gather ch [| 4; 0; 2 |] in
  Alcotest.(check int) "gather length" 3 picked.Engine.Chunk.length;
  List.iteri
    (fun out src ->
      Array.iteri
        (fun j v ->
          check_value (Printf.sprintf "gathered %d.%d" out j)
            mixed_rows.(src).(j) v)
        (Engine.Chunk.row picked out))
    [ 4; 0; 2 ]

let test_concat_unifies () =
  (* chunks whose column kinds disagree (ints vs strings) must unify
     when concatenated, falling back to boxed cells *)
  let a = Engine.Chunk.of_rows [| [| v_i 1 |]; [| v_i 2 |] |] ~lo:0 ~len:2 ~arity:1 in
  let b = Engine.Chunk.of_rows [| [| v_s "x" |]; [| Value.Null |] |] ~lo:0 ~len:2 ~arity:1 in
  let all = Engine.Chunk.concat ~arity:1 [| a; b |] in
  Alcotest.(check int) "concat length" 4 all.Engine.Chunk.length;
  List.iteri
    (fun i expected -> check_value (Printf.sprintf "concat %d" i) expected
        (Engine.Chunk.row all i).(0))
    [ v_i 1; v_i 2; v_s "x"; Value.Null ]

let test_column_ty () =
  let ch =
    Engine.Chunk.of_rows
      [| [| Value.Null; Value.Null |]; [| Value.Null; v_f 1.0 |] |]
      ~lo:0 ~len:2 ~arity:2
  in
  Alcotest.(check bool) "all-null column has no type" true
    (Engine.Chunk.column_ty ch 0 = None);
  Alcotest.(check bool) "first non-null wins" true
    (Engine.Chunk.column_ty ch 1 = Some Value.TFloat)

(* ---- float group keys: -0.0 vs 0.0 and NaN ---- *)

(* [Value.compare] says -0.0 = 0.0 and NaN = NaN, so every executor
   configuration must place such keys in one group; a hash that
   distinguishes the bit patterns would split them only on some
   paths.  Regression for the group-key hashing satellite. *)

let float_key_db () =
  let engine = Engine.Database.create () in
  let keys =
    [ -0.0; 0.0; Float.nan; 1.5; Float.nan; -0.0; 0.0; 1.5; 2.5; -0.0 ]
  in
  let rel =
    Relation.create
      (Schema.make [ ("k", Value.TFloat); ("v", Value.TInt) ])
      (List.mapi (fun i k -> [| v_f k; v_i i |]) keys)
  in
  Engine.Database.add_relation engine ~name:"t" rel;
  engine

let test_float_group_keys () =
  let engine = float_key_db () in
  let sql = "select k, count(*), sum(v) from t group by k" in
  let row_serial =
    Engine.Database.query ~config:(config ~chunked:false 1) engine sql
  in
  let chunked_serial = Engine.Database.query ~config:(config 1) engine sql in
  let chunked_parallel = Engine.Database.query ~config:(config 4) engine sql in
  (* distinct keys under Value.compare: {-0.0, 0.0}, {NaN}, 1.5, 2.5 *)
  Alcotest.(check int) "four groups" 4 (Relation.cardinality row_serial);
  check_same_relation "chunked serial = row serial" row_serial chunked_serial;
  check_bitwise_relation "chunked jobs=4 = jobs=1" chunked_serial
    chunked_parallel

let test_float_join_keys () =
  let engine = Engine.Database.create () in
  let rel name keys =
    Relation.create
      (Schema.make [ ("k", Value.TFloat); (name, Value.TInt) ])
      (List.mapi (fun i k -> [| v_f k; v_i i |]) keys)
  in
  Engine.Database.add_relation engine ~name:"l"
    (rel "a" [ -0.0; 0.0; Float.nan; 1.0; 2.0 ]);
  Engine.Database.add_relation engine ~name:"r"
    (rel "b" [ 0.0; Float.nan; 2.0; 3.0 ]);
  let sql = "select l.a, r.b from l, r where l.k = r.k" in
  let row_serial =
    Engine.Database.query ~config:(config ~chunked:false 1) engine sql
  in
  let chunked_serial = Engine.Database.query ~config:(config 1) engine sql in
  let chunked_parallel = Engine.Database.query ~config:(config 4) engine sql in
  (* -0.0 and 0.0 both meet r's 0.0; NaN meets NaN; 2.0 meets 2.0 *)
  Alcotest.(check int) "matches" 4 (Relation.cardinality row_serial);
  check_same_relation "chunked serial = row serial" row_serial chunked_serial;
  check_bitwise_relation "chunked jobs=4 = jobs=1" chunked_serial
    chunked_parallel

(* ---- executor equivalences on fixed shapes ---- *)

let test_empty_and_all_null () =
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"empty"
    (Relation.create
       (Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ])
       []);
  Engine.Database.add_relation engine ~name:"nulls"
    (Relation.create
       (Schema.make [ ("k", Value.TInt); ("v", Value.TInt) ])
       (List.init 20 (fun i -> [| v_i (i mod 3); Value.Null |])));
  List.iter
    (fun sql ->
      let row = Engine.Database.query ~config:(config ~chunked:false 1) engine sql in
      let c1 = Engine.Database.query ~config:(config 1) engine sql in
      let c4 = Engine.Database.query ~config:(config 4) engine sql in
      check_same_relation (sql ^ ": chunked = row") row c1;
      check_same_relation (sql ^ ": jobs=4 = jobs=1") c1 c4)
    [
      "select v from empty where v > 0";
      "select k, v from empty";
      "select k, count(*), sum(v) from empty group by k";
      "select v from nulls where v > 0";
      "select k, v + 1 from nulls";
      "select k, count(v), sum(v), min(v), max(v) from nulls group by k";
      "select a.v from nulls a, nulls b where a.v = b.v";
    ]

let test_truncate_prefix_chunked () =
  let engine = float_key_db () in
  let q = Sql.Parser.parse_query "select k, v * 2 from t where v >= 0" in
  let full = Engine.Database.query_ast ~config:(config 1) engine q in
  let check_at jobs =
    let cfg = { (config jobs) with max_rows = Some 13 } in
    let rel, { Engine.Database.truncated; cancelled = _ } =
      Engine.Database.query_ast_within ~config:cfg engine q
    in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d truncated" jobs)
      true truncated;
    let prefix =
      Relation.of_array (Relation.schema full)
        (Array.sub (Relation.rows full) 0 (Relation.cardinality rel))
    in
    check_same_relation (Printf.sprintf "jobs=%d prefix" jobs) prefix rel;
    rel
  in
  let serial = check_at 1 in
  let parallel = check_at 4 in
  check_same_relation "truncated prefixes agree" serial parallel

(* A hash join's children are charged build side first, fused or not:
   with 4 build rows and 10 probe rows under a 9-row limit, the build
   side is admitted whole and the probe side crosses the limit. *)
let test_join_charges_build_side_first () =
  let rel tag n =
    Relation.create
      (Schema.make [ ("k", Value.TInt); (tag, Value.TInt) ])
      (List.init n (fun i -> [| v_i i; v_i i |]))
  in
  let catalog =
    {
      Engine.Exec.relation =
        (function "l" -> rel "a" 10 | "r" -> rel "b" 4 | _ -> raise Not_found);
      index = (fun _ _ -> None);
    }
  in
  let plan =
    Engine.Plan.Hash_join
      {
        left = Engine.Plan.Scan { table = "l"; alias = "l" };
        right = Engine.Plan.Scan { table = "r"; alias = "r" };
        left_keys = [ Sql.Parser.parse_expr "l.k" ];
        right_keys = [ Sql.Parser.parse_expr "r.k" ];
      }
  in
  let limits = { Engine.Budget.max_rows = Some 9; max_elapsed = None } in
  List.iter
    (fun profiled ->
      let run budget =
        if profiled then fst (Engine.Exec.run_profiled ~budget catalog plan)
        else Engine.Exec.run ~budget catalog plan
      in
      (match run (Engine.Budget.create limits) with
      | _ -> Alcotest.fail "row limit not enforced"
      | exception Engine.Budget.Exceeded { produced; _ } ->
        Alcotest.(check int) "Raise: build rows + probe rows" 14 produced);
      let b = Engine.Budget.create ~mode:Engine.Budget.Truncate limits in
      Alcotest.(check int) "Truncate: nothing joins" 0
        (Relation.cardinality (run b));
      Alcotest.(check int) "Truncate: produced" 14 (Engine.Budget.produced b))
    [ false; true ]

(* ---- randomized equivalence (QCheck) ---- *)

let ( let* ) gen f = QCheck.Gen.( >>= ) gen f

(* floats lean on the corner cases the kernels special-case *)
let float_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float_range (-100.0) 100.0;
      QCheck.Gen.oneofl [ -0.0; 0.0; Float.nan; Float.infinity ];
    ]

(* numeric-or-null: these rows flow through arithmetic and SUM, where
   a string would (correctly, in both executors) raise *)
let value_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map v_i (QCheck.Gen.int_range (-50) 50);
      QCheck.Gen.map v_f float_gen;
      QCheck.Gen.return Value.Null;
    ]

(* group sizes well past default_rows = 7, so groups straddle chunk
   boundaries; n ranges down to 0 for the empty-relation edge *)
let grouped_relation_gen =
  let* n = QCheck.Gen.int_range 0 120 in
  let* all_null = QCheck.Gen.bool in
  let* rows =
    QCheck.Gen.list_size (QCheck.Gen.return n)
      (let* g = QCheck.Gen.int_range 0 4 in
       let* v = if all_null then QCheck.Gen.return Value.Null else value_gen in
       QCheck.Gen.return [| v_i g; v |])
  in
  QCheck.Gen.return
    (Relation.create (Schema.make [ ("g", Value.TInt); ("v", Value.TInt) ]) rows)

let with_relation rel f =
  let engine = Engine.Database.create () in
  Engine.Database.add_relation engine ~name:"t" rel;
  f engine

let bitwise_jobs1_jobs4 engine sql =
  let serial = Engine.Database.query ~config:(config 1) engine sql in
  let parallel = Engine.Database.query ~config:(config 4) engine sql in
  check_bitwise_relation sql serial parallel

let prop_chunked_jobs_equivalence =
  QCheck.Test.make ~count:60
    ~name:"chunked filter/project/aggregate bit-identical jobs=1 vs jobs=4"
    (QCheck.make grouped_relation_gen)
    (fun rel ->
      with_relation rel (fun engine ->
          bitwise_jobs1_jobs4 engine "select v from t where v > 1";
          bitwise_jobs1_jobs4 engine "select g, v + 1, v * 2 from t";
          bitwise_jobs1_jobs4 engine
            "select g, count(*), count(v), sum(v), min(v), max(v) from t \
             group by g";
          bitwise_jobs1_jobs4 engine
            "select g, count(v) from t where g > 1 group by g \
             having count(*) > 1";
          true))

let join_pair_gen =
  let* nl = QCheck.Gen.int_range 0 100 in
  let* nr = QCheck.Gen.int_range 0 100 in
  let row_gen tag =
    let* k =
      QCheck.Gen.oneof
        [
          QCheck.Gen.map v_i (QCheck.Gen.int_range 0 10);
          QCheck.Gen.map v_f (QCheck.Gen.oneofl [ -0.0; 0.0; Float.nan; 3.0 ]);
          QCheck.Gen.return Value.Null;
        ]
    in
    let* v = QCheck.Gen.int_range 0 1000 in
    QCheck.Gen.return [| k; v_s (Printf.sprintf "%s%d" tag v) |]
  in
  let* lrows = QCheck.Gen.list_size (QCheck.Gen.return nl) (row_gen "l") in
  let* rrows = QCheck.Gen.list_size (QCheck.Gen.return nr) (row_gen "r") in
  let schema tag = Schema.make [ ("k", Value.TInt); (tag, Value.TString) ] in
  QCheck.Gen.return
    (Relation.create (schema "a") lrows, Relation.create (schema "b") rrows)

let prop_chunked_join_equivalence =
  QCheck.Test.make ~count:60
    ~name:"chunked hash join bit-identical jobs=1 vs jobs=4, equal to row"
    (QCheck.make join_pair_gen)
    (fun (left, right) ->
      let engine = Engine.Database.create () in
      Engine.Database.add_relation engine ~name:"l" left;
      Engine.Database.add_relation engine ~name:"r" right;
      let sql = "select l.a, r.b from l, r where l.k = r.k" in
      let row = Engine.Database.query ~config:(config ~chunked:false 1) engine sql in
      let c1 = Engine.Database.query ~config:(config 1) engine sql in
      let c4 = Engine.Database.query ~config:(config 4) engine sql in
      check_same_relation "chunked = row" row c1;
      check_bitwise_relation "jobs=4 = jobs=1" c1 c4;
      true)

(* int-only aggregates are exact, so chunked and row executors must
   agree to the last bit even across morsel reassociation *)
let int_relation_gen =
  let* n = QCheck.Gen.int_range 0 120 in
  let* rows =
    QCheck.Gen.list_size (QCheck.Gen.return n)
      (let* g = QCheck.Gen.int_range 0 4 in
       let* v =
         QCheck.Gen.oneof
           [
             QCheck.Gen.map v_i (QCheck.Gen.int_range (-1000) 1000);
             QCheck.Gen.return Value.Null;
           ]
       in
       QCheck.Gen.return [| v_i g; v |])
  in
  QCheck.Gen.return
    (Relation.create (Schema.make [ ("g", Value.TInt); ("v", Value.TInt) ]) rows)

let prop_chunked_equals_row_int_aggregates =
  QCheck.Test.make ~count:60
    ~name:"chunked aggregate equals row executor exactly on int columns"
    (QCheck.make int_relation_gen)
    (fun rel ->
      with_relation rel (fun engine ->
          let sql =
            "select g, count(*), sum(v), min(v), max(v) from t group by g"
          in
          let row =
            Engine.Database.query ~config:(config ~chunked:false 1) engine sql
          in
          let c4 = Engine.Database.query ~config:(config 4) engine sql in
          check_same_relation "chunked jobs=4 = row serial" row c4;
          true))

(* budgeted Truncate prefixes stay deterministic under the chunked
   executor at any jobs value *)
let prop_truncate_prefix =
  QCheck.Test.make ~count:40
    ~name:"chunked Truncate prefixes agree between jobs=1 and jobs=4"
    (QCheck.make grouped_relation_gen)
    (fun rel ->
      with_relation rel (fun engine ->
          let q = Sql.Parser.parse_query "select g, v from t where g >= 0" in
          let at jobs =
            let cfg = { (config jobs) with max_rows = Some 17 } in
            fst (Engine.Database.query_ast_within ~config:cfg engine q)
          in
          check_same_relation "prefixes" (at 1) (at 4);
          true))

(* Fusion is invisible: [Exec.run] (fused) and [Exec.run_profiled]
   (every node at a row boundary) return the same rows, stop flags and
   budget accounting under every budget shape the executor sees — none,
   time-only, and row limits in both modes — with telemetry on or off.
   Plans are fused Filter/Project/Hash_join pipelines under a join
   tree and an aggregate, so row limits land inside the pipelines, in
   joins and at their boundaries. *)

let fusion_queries =
  List.map Sql.Parser.parse_query
    [
      "select l.a, r.b from l, r where l.k = r.k";
      "select l.a, r.b from l, r where l.k = r.k and r.b <> 'r7' and l.k > 2";
      "select x.a, y.b, z.b from l x, r y, r z where x.k = y.k and y.k = z.k";
      "select l.k, count(*), min(r.b) from l, r where l.k = r.k group by l.k";
    ]

type fusion_outcome =
  | Rows of Relation.t * bool * bool * int
  | Exceeded of int
  | Cancelled

let fusion_budgets =
  let rows n = { Engine.Budget.max_rows = Some n; max_elapsed = None } in
  let time = { Engine.Budget.max_rows = None; max_elapsed = Some 60.0 } in
  None
  :: List.concat_map
       (fun limits ->
         [
           Some (Engine.Budget.Truncate, limits);
           Some (Engine.Budget.Raise, limits);
         ])
       (time :: List.map rows [ 0; 1; 5; 17; 60; 400 ])

let fusion_run ~profiled ~jobs catalog plan spec =
  let budget =
    Option.map
      (fun (mode, limits) ->
        Engine.Budget.create ~mode ~cancel:(Engine.Cancel.create ()) limits)
      spec
  in
  match
    if profiled then fst (Engine.Exec.run_profiled ?budget ~jobs catalog plan)
    else Engine.Exec.run ?budget ~jobs catalog plan
  with
  | rel -> (
    match budget with
    | None -> Rows (rel, false, false, 0)
    | Some b ->
      Rows
        ( rel,
          Engine.Budget.truncated b,
          Engine.Budget.cancelled b,
          Engine.Budget.produced b ))
  | exception Engine.Budget.Exceeded { produced; _ } -> Exceeded produced
  | exception Engine.Cancel.Cancelled _ -> Cancelled

let check_fusion_outcome msg unfused fused =
  match (unfused, fused) with
  | Rows (u, ut, uc, up), Rows (f, ft, fc, fp) ->
    check_same_relation msg u f;
    Alcotest.(check (triple bool bool int))
      (msg ^ ": truncated, cancelled, produced")
      (ut, uc, up) (ft, fc, fp)
  | Exceeded u, Exceeded f ->
    Alcotest.(check int) (msg ^ ": produced at Exceeded") u f
  | Cancelled, Cancelled -> ()
  | _ -> Alcotest.failf "%s: fused and unfused runs ended differently" msg

let prop_fused_equals_unfused =
  QCheck.Test.make ~count:25
    ~name:"fused run equals unfused profile under every budget shape"
    (QCheck.make join_pair_gen)
    (fun (left, right) ->
      let engine = Engine.Database.create () in
      Engine.Database.add_relation engine ~name:"l" left;
      Engine.Database.add_relation engine ~name:"r" right;
      let catalog =
        {
          Engine.Exec.relation = Engine.Database.relation engine;
          index = (fun table attr -> Engine.Database.index engine ~table ~attr);
        }
      in
      List.iter
        (fun q ->
          let plan = Engine.Database.plan engine q in
          List.iter
            (fun (telemetry, jobs, spec) ->
              let run profiled =
                let f () = fusion_run ~profiled ~jobs catalog plan spec in
                if telemetry then Telemetry.Control.with_enabled f
                else Telemetry.Control.with_disabled f
              in
              check_fusion_outcome
                (Printf.sprintf "%s (jobs=%d, telemetry %b)"
                   (Engine.Plan.to_string plan) jobs telemetry)
                (run true) (run false))
            (List.concat_map
               (fun telemetry ->
                 List.concat_map
                   (fun jobs ->
                     List.map
                       (fun spec -> (telemetry, jobs, spec))
                       fusion_budgets)
                   [ 1; 4 ])
               [ false; true ]))
        fusion_queries;
      true)

let () =
  Alcotest.run "chunk"
    [
      ( "representation",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "gather" `Quick test_gather;
          Alcotest.test_case "concat unifies kinds" `Quick test_concat_unifies;
          Alcotest.test_case "column type inference" `Quick test_column_ty;
        ] );
      ( "float keys",
        [
          Alcotest.test_case "group keys -0.0/0.0/NaN" `Quick
            test_float_group_keys;
          Alcotest.test_case "join keys -0.0/0.0/NaN" `Quick
            test_float_join_keys;
        ] );
      ( "executor",
        [
          Alcotest.test_case "empty and all-null inputs" `Quick
            test_empty_and_all_null;
          Alcotest.test_case "truncate prefix" `Quick
            test_truncate_prefix_chunked;
          Alcotest.test_case "join charges its build side first" `Quick
            test_join_charges_build_side_first;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_chunked_jobs_equivalence;
            prop_chunked_join_equivalence;
            prop_chunked_equals_row_int_aggregates;
            prop_truncate_prefix;
            prop_fused_equals_unfused;
          ] );
    ]
