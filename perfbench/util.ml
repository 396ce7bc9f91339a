(* Small helpers shared by the benchmark's modules. *)

let now = Unix.gettimeofday

(* nearest-rank quantile of an unsorted sample; nan when empty *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = quantile xs 0.5

(* wall and process CPU seconds (user + system, all threads) of one call *)
type cost = { wall : float; cpu : float }

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let measure f =
  let w0 = now () and c0 = process_cpu () in
  ignore (f ());
  { wall = now () -. w0; cpu = process_cpu () -. c0 }
let sum xs = List.fold_left ( +. ) 0.0 xs

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* flat copy of a store directory *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun e -> copy_file (Filename.concat src e) (Filename.concat dst e))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc e -> acc + (Unix.stat (Filename.concat dir e)).Unix.st_size)
    0 (Sys.readdir dir)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* (all, steal) jiffies of the machine, from the first line of
   /proc/stat *)
let cpu_jiffies () =
  let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line in
  match Option.map (String.split_on_char ' ') line with
  | Some ("cpu" :: fields) ->
    let xs = List.filter_map int_of_string_opt fields in
    let steal = match List.nth_opt xs 7 with Some s -> s | None -> 0 in
    (List.fold_left ( + ) 0 xs, steal)
  | _ -> (0, 0)

let steal_pct (all0, steal0) (all1, steal1) =
  if all1 = all0 then 0.0
  else 100.0 *. float_of_int (steal1 - steal0) /. float_of_int (all1 - all0)

(* wall seconds of a run's named phases, for the report *)
type phases = (string * float) list ref

let phases () : phases = ref []

let timed_phase (p : phases) name f =
  let t0 = now () in
  let x = f () in
  p := (name, now () -. t0) :: !p;
  x

let phase_report (p : phases) =
  String.concat ", " (List.rev_map (fun (n, s) -> Printf.sprintf "%s %.1f" n s) !p)
