(* Cooperative cancellation.

   A token is a single atomic cell threaded through the executor's
   checkpoints: budget charges, operator boundaries, and the parallel
   pool's chunk-claim loop all poll it, so a long-running query — in
   particular a partition-parallel join spread over several domains —
   can be interrupted at the next checkpoint rather than only between
   queries.  Checking costs one atomic load, cheap enough for per-row
   paths.

   Tripping is one compare-and-set of the cell from [None] to the trip
   record, so the first reason wins and any checkpoint that observes
   the trip also sees why and when.

   The wall-clock deadlines behind [--budget-time] live here too, all
   serviced by one process-wide timer (see below).  Deadlines, trip
   times and budget clocks read the monotonic clock: a wall clock that
   is stepped would trip a deadline early or late. *)

let m_cancellations =
  Telemetry.Metrics.counter "engine.cancel.cancellations"
    ~help:"queries interrupted via a cancellation token"

let h_latency =
  Telemetry.Metrics.histogram "engine.cancel.latency_seconds"
    ~help:"token trip to the return of its deadline region (unwind time)"

let h_lag =
  Telemetry.Metrics.histogram "engine.deadline.lag_seconds"
    ~help:"deadline due to token tripped by the deadline timer"

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type trip = { reason : string; at : float }
type token = trip option Atomic.t

exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Cancelled reason -> Some (Printf.sprintf "query cancelled: %s" reason)
    | _ -> None)

let create () = Atomic.make None

let cancel ?(reason = "cancelled") t =
  if
    Option.is_none (Atomic.get t)
    && Atomic.compare_and_set t None (Some { reason; at = now () })
  then Telemetry.Metrics.inc m_cancellations

let cancelled t = Option.is_some (Atomic.get t)
let reason t = Option.map (fun trip -> trip.reason) (Atomic.get t)

let check t =
  match Atomic.get t with Some trip -> raise (Cancelled trip.reason) | None -> ()

(* ---- the deadline timer ----

   Every armed deadline is an entry in one list guarded by [lock].  A
   single domain, spawned by the first arm, services it: it trips every
   entry that has come due, then sleeps in [Unix.select] on a self-pipe
   until the earliest remaining due time.  Arming an entry that is due
   before the time the timer is sleeping towards writes one byte to the
   pipe to wake it; any other arm is a cons and nothing more.  At most
   one deadline per in-flight query is armed, so a linear scan for the
   earliest is as cheap as any ordered structure.

   An idle domain is not free: every stop-the-world minor collection
   of the process has to wake it.  So the timer never sleeps longer
   than [idle_exit], and once no entry is pending and nothing has been
   armed for [idle_exit] it closes its pipe and exits; the next arm
   starts a new one.  Steady traffic keeps it alive.

   Tokens are tripped, and the pipe written and closed, with [lock]
   held, so a disarm is final (once it returns, the timer can no
   longer trip that region's token) and no write reaches a closed
   pipe. *)

let idle_exit = 0.1

type entry = { due : float; seconds : float; tok : token }

type timer = {
  lock : Mutex.t;
  mutable entries : entry list;
  (* the due time the timer domain is sleeping towards; [infinity]
     while it waits with no entry pending *)
  mutable wake_at : float;
  (* write end of the self-pipe; [None] while no timer domain runs *)
  mutable wake : Unix.file_descr option;
  mutable last_arm : float;
}

let timer =
  {
    lock = Mutex.create ();
    entries = [];
    wake_at = infinity;
    wake = None;
    last_arm = 0.0;
  }

let exceeded_reason seconds = Printf.sprintf "time budget of %gs exceeded" seconds

let rec timer_loop r w =
  let timeout =
    Mutex.protect timer.lock (fun () ->
        let now = now () in
        let due, pending = List.partition (fun e -> e.due <= now) timer.entries in
        timer.entries <- pending;
        List.iter
          (fun e ->
            cancel ~reason:(exceeded_reason e.seconds) e.tok;
            Telemetry.Metrics.observe h_lag (now -. e.due))
          due;
        if pending = [] && now -. timer.last_arm >= idle_exit then begin
          timer.wake <- None;
          Unix.close r;
          Unix.close w;
          None
        end
        else begin
          timer.wake_at <-
            List.fold_left (fun t e -> Float.min t e.due) infinity pending;
          Some (Float.min (timer.wake_at -. now) idle_exit)
        end)
  in
  match timeout with
  | None -> ()
  | Some timeout ->
    (match Unix.select [ r ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> ignore (Unix.read r (Bytes.create 64) 0 64)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    timer_loop r w

let arm ~seconds tok =
  let now = now () in
  let e = { due = now +. seconds; seconds; tok } in
  Mutex.protect timer.lock (fun () ->
      let w =
        match timer.wake with
        | Some w -> w
        | None ->
          let r, w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock w;
          ignore (Domain.spawn (fun () -> timer_loop r w));
          timer.wake <- Some w;
          timer.wake_at <- infinity;
          w
      in
      timer.entries <- e :: timer.entries;
      timer.last_arm <- now;
      if e.due < timer.wake_at then begin
        timer.wake_at <- e.due;
        (* a full pipe already holds a pending wake-up *)
        try ignore (Unix.write_substring w "!" 0 1)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      end);
  e

let disarm e =
  Mutex.protect timer.lock (fun () ->
      timer.entries <- List.filter (fun e' -> e' != e) timer.entries)

let timer_running () = Mutex.protect timer.lock (fun () -> Option.is_some timer.wake)

(* ---- deadline regions ---- *)

(* Deadlines this short count as already expired: waking the timer
   domain and having it trip the token takes a good part of that, so
   [f] would start work it was never entitled to. *)
let min_deadline = 0.002

let expired_reason seconds =
  if seconds <= 0.0 then Printf.sprintf "deadline of %gs already expired" seconds
  else exceeded_reason seconds

let observe_unwind t =
  match Atomic.get t with
  | Some trip -> Telemetry.Metrics.observe h_latency (now () -. trip.at)
  | None -> ()

let with_deadline ~seconds t f =
  if seconds <= min_deadline then begin
    (* [f] still runs, so Truncate-mode callers get their empty partial
       result through the normal path, but it observes the
       cancellation at its very first checkpoint *)
    cancel ~reason:(expired_reason seconds) t;
    Fun.protect ~finally:(fun () -> observe_unwind t) f
  end
  else begin
    let e = arm ~seconds t in
    Fun.protect
      ~finally:(fun () ->
        disarm e;
        observe_unwind t)
      f
  end
