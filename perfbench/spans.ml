(* In-memory spans for the traced run.

   Each span is (name, start, end, parent, request id).  Spans are
   recorded around calls into the library's public functions, kept in
   memory, and written out once when the run ends.  A layer's self
   time is its span minus the time its child spans cover. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  req : int;
}

let recorded : span list ref = ref []
let count = ref 0
let current = ref (-1)

(* open spans, so children can be charged to their parent *)
let child_time : (int, float) Hashtbl.t = Hashtbl.create 64
let self : (int, string * int * float) Hashtbl.t = Hashtbl.create 4096

let with_ ~req name f =
  let id = !count in
  incr count;
  let parent = !current in
  current := id;
  let start = Util.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Util.now () in
      current := parent;
      let children = Option.value ~default:0.0 (Hashtbl.find_opt child_time id) in
      Hashtbl.remove child_time id;
      if parent >= 0 then
        Hashtbl.replace child_time parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time parent)
          +. (stop -. start));
      Hashtbl.replace self id (name, req, stop -. start -. children);
      recorded := { id; name; start; stop; parent; req } :: !recorded)
    f

(* per request, the summed self time (ms) of every span named [name];
   requests in [reqs] that never entered the layer count as 0 *)
let self_ms_by_request ~reqs name =
  let per_req = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ (n, req, dt) ->
      if n = name then
        Hashtbl.replace per_req req
          (Option.value ~default:0.0 (Hashtbl.find_opt per_req req) +. (dt *. 1000.0)))
    self;
  List.map (fun r -> Option.value ~default:0.0 (Hashtbl.find_opt per_req r)) reqs

(* every span as one CSV line, in opening order *)
let write path =
  let spans = List.sort (fun a b -> compare a.id b.id) !recorded in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id,name,start,end,parent,request\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d,%s,%.6f,%.6f,%d,%d\n" s.id s.name s.start s.stop
            s.parent s.req)
        spans)
