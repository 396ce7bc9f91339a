(** Cooperative query cancellation.

    A token is polled at the executor's checkpoints — budget charges,
    operator boundaries, every chunk of a chunked or parallel region —
    so a running query (including one spread over several domains)
    stops at the next checkpoint after the token trips.  Polling is one
    atomic load; tripping is one-shot and counted by the
    [engine.cancel.cancellations] telemetry counter. *)

val now : unit -> float
(** Monotonic seconds (arbitrary origin): the clock of deadlines, trip
    times and {!Budget} elapsed time.  Unlike [Unix.gettimeofday] it
    is never stepped and never runs backwards. *)

type token

exception Cancelled of string
(** Raised at a checkpoint of a cancelled execution (in [Raise] budget
    mode); the payload is the {!cancel} reason. *)

val create : unit -> token

val cancel : ?reason:string -> token -> unit
(** Trip the token (idempotent; the first reason wins). *)

val cancelled : token -> bool
val reason : token -> string option

val check : token -> unit
(** @raise Cancelled if the token has tripped. *)

val with_deadline : seconds:float -> token -> (unit -> 'a) -> 'a
(** Run [f] with a wall-clock deadline armed on the token: once
    [seconds] elapse, the process-wide deadline timer trips the token,
    interrupting work — notably parallel regions — at the next
    checkpoint even when no single operator ever finishes.

    The timer is one domain, started by the first deadline armed, that
    sleeps until the earliest armed deadline and exits once nothing has
    been armed or pending for a tenth of a second (the next arm starts
    it again).  Arming and disarming are list operations under a mutex,
    with no domain spawned or joined per call.  The deadline is
    disarmed when [f] returns or raises, and after that the timer never
    trips the token.

    A deadline that is already past — zero, negative, or at or below
    2ms — trips the token {e before} [f] runs, so [f] observes the
    cancellation at its first checkpoint.

    Telemetry: [engine.deadline.lag_seconds] records how late the timer
    tripped each deadline it serviced, and
    [engine.cancel.latency_seconds] how long [f] took to return after
    its token tripped (whoever tripped it). *)

val timer_running : unit -> bool
(** Whether the deadline timer's domain is currently running: true
    from the first arm until it has idled out. *)
