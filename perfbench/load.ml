(* The open-loop load generator.

   Requests are due on a fixed schedule whatever the daemon does.  At
   most [inflight] connections are open at once (one sender domain
   each); a request whose sender is still busy when it falls due is
   sent late, and its latency still counts from the due time, so a
   stall is charged to every request queued behind it.  How late each
   request left is kept as the generator's lag. *)

type request = { id : int; due : float;  (** seconds after start *) sql : string }

type outcome = {
  due : float;  (** absolute time the request fell due *)
  sent : float;  (** absolute send time *)
  finished : float;
  status : int;  (** HTTP status; 0 for a connection error *)
  body : string;
}

(* the X-Trace-Id of a request, so query-log records can be matched *)
let trace_id id = Printf.sprintf "%016x" (0xbe0c0000 + id)

let send ~port r =
  match
    Daemon.http ~port ~body:r.sql ~headers:[ ("x-trace-id", trace_id r.id) ] "/query"
  with
  | resp -> (resp.Server.Http.status, resp.Server.Http.r_body)
  | exception e -> (0, Printexc.to_string e)

(* Replay [reqs] (sorted by [due]) from now; returns one outcome per
   request, in request order. *)
let run ~port ?(inflight = 2) (reqs : request array) =
  let n = Array.length reqs in
  let results = Array.make n { due = 0.; sent = 0.; finished = 0.; status = 0; body = "" } in
  let next = Atomic.make 0 in
  let start = Util.now () +. 0.05 in
  let sender () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = reqs.(i) in
        let due = start +. r.due in
        let wait = due -. Util.now () in
        if wait > 0.0 then Unix.sleepf wait;
        let sent = Util.now () in
        let status, body = send ~port r in
        let finished = Util.now () in
        results.(i) <- { due; sent; finished; status; body };
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init inflight (fun _ -> Domain.spawn sender) in
  List.iter Domain.join domains;
  results

let latency_ms o = (o.finished -. o.due) *. 1000.0
let lag_ms o = (o.sent -. o.due) *. 1000.0

(* [reqs] cut into [k] consecutive slices, each re-timed to start at 0 *)
let slices (reqs : request array) k =
  let n = Array.length reqs in
  List.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      let slice = Array.sub reqs lo (hi - lo) in
      let t0 = if hi > lo then slice.(0).due else 0.0 in
      Array.map (fun (r : request) -> { r with due = r.due -. t0 }) slice)

(* a fixed-rate schedule of [count] requests *)
let schedule ~rate ?(first_id = 0) sqls =
  Array.mapi (fun i sql -> { id = first_id + i; due = float_of_int i /. rate; sql }) sqls

(* one line per request: id, due, sent and finished (ms after the
   first request fell due), HTTP status and the request body *)
let dump path reqs outs =
  let start = if outs = [||] then 0.0 else outs.(0).due in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id,due_ms,sent_ms,finished_ms,status,sql\n";
      Array.iteri
        (fun i r ->
          let o = outs.(i) in
          Printf.fprintf oc "%d,%.3f,%.3f,%.3f,%d,%s\n" r.id
            ((o.due -. start) *. 1000.0)
            ((o.sent -. start) *. 1000.0)
            ((o.finished -. start) *. 1000.0)
            o.status
            (Dirty.Csv.render_line [ r.sql ]))
        reqs)
