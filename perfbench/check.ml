(* The correctness gate: every served answer is compared with the
   answer computed in-process by Conquer.Clean.answers on the same
   store generation.

   Answer rows must form the same bag.  Every cell but the last is
   compared as rendered JSON text (the daemon's rendering, reproduced
   here); the last cell, clean_prob, must agree within 1e-9. *)

let prob_tolerance = 1e-9

(* the daemon's JSON rendering of one value *)
let render (v : Dirty.Value.t) =
  match v with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Telemetry.Export.json_float f
  | String s -> Telemetry.Export.json_string s
  | Date _ -> Telemetry.Export.json_string (Dirty.Value.to_string v)

type answer = (string * float) array  (** (other cells, clean_prob), sorted *)

let normalize (rows : (string list * float) list) : answer =
  let a =
    Array.of_list (List.map (fun (cells, p) -> (String.concat "\x00" cells, p)) rows)
  in
  Array.sort compare a;
  a

let split_last cells =
  match List.rev cells with
  | last :: rest -> (List.rev rest, last)
  | [] -> ([], "")

let of_relation rel : answer =
  Dirty.Relation.rows rel |> Array.to_list
  |> List.map (fun row ->
         let cells, prob = split_last (List.map render (Array.to_list row)) in
         (cells, float_of_string prob))
  |> normalize

let of_json rows : answer option =
  match rows with
  | Json.Arr rows -> (
    try
      Some
        (normalize
           (List.map
              (function
                | Json.Arr cells ->
                  let cells, prob = split_last (List.map Json.raw cells) in
                  (cells, float_of_string prob)
                | _ -> raise Exit)
              rows))
    with _ -> None)
  | _ -> None

let same (a : answer) (b : answer) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (ka, pa) (kb, pb) -> ka = kb && Float.abs (pa -. pb) <= prob_tolerance)
       a b

(* Expected answers, memoized per (generation, query); a session is
   built lazily for each generation a response names. *)
type oracle = {
  db_at : int -> Dirty.Dirty_db.t option;
  sessions : (int, Conquer.Clean.session) Hashtbl.t;
  answers : (int * string, answer) Hashtbl.t;
}

let oracle db_at = { db_at; sessions = Hashtbl.create 8; answers = Hashtbl.create 1024 }

let serial = { Engine.Planner.default_config with jobs = 1 }

let expected o ~generation sql =
  match Hashtbl.find_opt o.answers (generation, sql) with
  | Some a -> Some a
  | None -> (
    let session =
      match Hashtbl.find_opt o.sessions generation with
      | Some s -> Some s
      | None ->
        Option.map
          (fun db ->
            let s = Conquer.Clean.create db in
            Hashtbl.replace o.sessions generation s;
            s)
          (o.db_at generation)
    in
    match session with
    | None -> None
    | Some s ->
      let a = of_relation (Conquer.Clean.answers ~config:serial s sql) in
      Hashtbl.replace o.answers (generation, sql) a;
      Some a)

type verdict = Ok_answer | Failed of string

(* judge one /query response *)
let read o ~sql ~status ~body =
  if status <> 200 then
    Failed (Printf.sprintf "HTTP %d: %s" status (String.sub body 0 (min 200 (String.length body))))
  else
    match Json.parse body with
    | exception Json.Error e -> Failed ("unparsable response: " ^ e)
    | j -> (
      let flag k = Option.value ~default:false (Json.bool_field k j) in
      match Json.int_field "generation" j, Option.bind (Json.member "rows" j) (fun r -> of_json r) with
      | None, _ | _, None -> Failed "response without generation or rows"
      | Some generation, Some got ->
        if flag "partial" || flag "cancelled" then Failed "partial or cancelled answer"
        else (
          match expected o ~generation sql with
          | None -> Failed (Printf.sprintf "response names unknown generation %d" generation)
          | Some want ->
            if same got want then Ok_answer
            else
              let diff =
                let n = min (Array.length got) (Array.length want) in
                let rec first i =
                  if i >= n then ""
                  else
                    let (kg, pg), (kw, pw) = (got.(i), want.(i)) in
                    if kg = kw && Float.abs (pg -. pw) <= prob_tolerance then first (i + 1)
                    else
                      Printf.sprintf "; first difference: %S p=%.17g, expected %S p=%.17g"
                        kg pg kw pw
                in
                first 0
              in
              Failed
                (Printf.sprintf "wrong answer at generation %d: %d rows, expected %d%s"
                   generation (Array.length got) (Array.length want) diff)))
