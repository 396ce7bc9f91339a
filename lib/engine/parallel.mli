(** A fixed-size pool of worker domains for partition-parallel query
    execution.

    The pool is created lazily on the first parallel region and grows
    (never shrinks) to the largest [jobs] ever requested, capped at
    {!max_jobs}.  Work is distributed by chunk stealing over a shared
    atomic index, and the {e caller participates}: a parallel region
    makes progress even when every worker is busy, so nested regions
    cannot deadlock.

    Telemetry spans opened inside tasks are confined to the executing
    domain ([Telemetry.Span] keeps per-domain stacks) and merged back
    into the caller's span in task-index order, so traces of parallel
    runs are deterministic. *)

val max_jobs : int
(** Hard cap on pool size (the domain count recommended by the
    runtime, at least 1). *)

val default_jobs : unit -> int
(** The jobs count used when no explicit configuration is given: the
    process-wide override from {!set_default_jobs} if set, else the
    [CONQUER_JOBS] environment variable if parseable, else [1]. *)

val set_default_jobs : int -> unit
(** Set the process-wide default (clamped to [1 .. max_jobs]); used by
    the CLI's [--jobs] flag. *)

val warm : int -> unit
(** [warm jobs] pre-spawns the worker domains a [jobs]-wide region
    would use (clamped to {!max_jobs}), so the first parallel region
    does not pay domain-creation cost.  Benchmarks call this before
    sampling; otherwise the lazily-created pool charges its spawn time
    to whichever run happens first. *)

val min_rows_per_chunk : int ref
(** Parallel operators fall back to serial execution when the input
    has fewer than about [jobs * !min_rows_per_chunk] rows — below
    that, domain handoff costs more than it saves.  It is also the
    morsel size in which serial row operators walk their input,
    polling the cancellation token between morsels.  Exposed
    (default 512) so tests can force the parallel paths on small
    relations. *)

val run : ?cancel:Cancel.token -> jobs:int -> int -> (int -> unit) -> unit
(** [run ~jobs n task] evaluates [task i] for every [0 <= i < n],
    using up to [jobs] domains (including the calling one).  Tasks
    must be thread-safe and write to disjoint state.  Blocks until all
    tasks finish; completed-task effects are visible to the caller.
    If any task raises, the exception of the lowest task index is
    re-raised in the caller after all tasks finish.  With [jobs <= 1]
    or [n <= 1] the tasks run inline in index order.

    When [cancel] is given, the token is polled before each task: once
    it trips, unstarted tasks are skipped and {!Cancel.Cancelled} is
    raised after the region drains.  (The executor passes its budget's
    token in both budget modes; a [Truncate]-mode node catches the
    exception and yields an empty cancelled partial.) *)

val init : ?cancel:Cancel.token -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] with the calls distributed
    like {!run}; element [i] is [f i].  The order of evaluation is
    unspecified, so [f] must be pure up to thread-safe effects.
    [cancel] behaves as in {!run}. *)
