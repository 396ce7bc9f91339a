(** Plan evaluation.

    Operators are materialized: each node produces a full
    {!Dirty.Relation.t}.  Joins are hash-based; aggregation is
    hash-grouped. *)

type catalog = {
  relation : string -> Dirty.Relation.t;
      (** base table by name. @raise Not_found for unknown tables *)
  index : string -> string -> Index.t option;
      (** [index table attr] is the persistent index, when one
          exists *)
}

exception Exec_error of string

type spill = { spill_rows : int; spill_dir : string }
(** Grace-spill configuration for hash joins: when the build side of a
    join holds at least [spill_rows] rows, both sides are hash-
    partitioned into [.spill-*.tmp] run files under [spill_dir]
    (through {!Fault.Io}, so chaos tests can fail or crash any
    syscall) and joined partition-at-a-time, bounding the in-memory
    hash table.  Spilled join output is partition-major — bag-
    identical to the in-memory join, but row order differs.  A
    crashed spill leaves debris that [Dirty.Store.recover] sweeps. *)

val run :
  ?budget:Budget.t ->
  ?jobs:int ->
  ?chunked:bool ->
  ?spill:spill ->
  catalog ->
  Plan.t ->
  Dirty.Relation.t
(** [jobs] (default [1]) caps the domains used for partition-parallel
    operators (hash join, filter, project, aggregate).  Results are
    bit-identical to a serial run for any [jobs]: chunk outputs are
    concatenated in input order and aggregate groups are merged in
    first-occurrence order.  A budget is charged in chunk order (a
    node's output at its boundary, a chunked join's output one left
    chunk at a time), so [Truncate] prefixes are the same at any
    [jobs]; the row executor's per-row-charged joins run serially under
    a budget.

    [chunked] (default [true]) selects the columnar chunk executor for
    Filter/Project/Hash_join/Aggregate: inputs are pivoted into
    {!Chunk.t} batches of [!Chunk.default_rows] rows, operators run
    one morsel (chunk) per scheduling unit, and chunk-friendly
    subtrees fuse column-to-column unless a spill is configured.  A
    fused node is timed, traced and budget-charged like an unfused one,
    so fusion changes neither the result, nor the budget's accounting
    and flags, nor the shape of a trace.  Chunk boundaries are a
    function of the data only, so the jobs=1 ≡ jobs=N guarantee
    carries over.  Results are bit-identical to [chunked:false] (the
    row-at-a-time executor): chunked aggregation partitions groups by
    key hash exactly like the row path, feeding every group in global
    row order — no partial merge, no float reassociation.  The one
    accepted divergence: when several rows would each raise a type
    error, the reported instance may differ (whether an error is
    raised never does).

    [spill] (default off) enables the Grace hash-join spill; joins
    below the threshold are unaffected.
    @raise Exec_error on semantic errors (unknown table, unbound or
    ambiguous column, type errors).
    @raise Budget.Exceeded when a [Raise]-mode budget runs out; with a
    [Truncate]-mode budget the result is the partial output produced
    within the budget (consult {!Budget.truncated}).
    @raise Fault.Io.Io_error when a spill file operation fails (a torn
    spill frame surfaces as a non-transient read error). *)

(** Per-operator execution statistics (EXPLAIN ANALYZE). *)
type profile = {
  operator : string;  (** short operator label, e.g. ["HashJoin"] *)
  out_rows : int;  (** rows the operator produced *)
  elapsed : float;  (** seconds, inclusive of children *)
  children : profile list;
}

val run_profiled :
  ?budget:Budget.t ->
  ?jobs:int ->
  ?chunked:bool ->
  ?spill:spill ->
  catalog ->
  Plan.t ->
  Dirty.Relation.t * profile
(** Like {!run} but also returns the per-node statistics tree.
    Fusion is disabled so every node keeps its own row boundary (and
    an accurate [out_rows]); profiled results are bit-identical to
    {!run}'s. *)

val pp_profile : Format.formatter -> profile -> unit

val infer_schema :
  string list -> Dirty.Relation.row list -> Dirty.Schema.t
(** Output-schema inference for computed columns: each column's type
    is taken from its first non-null value (VARCHAR when none).
    Exposed for tests. *)
