(* A small JSON reader for the daemon's responses.

   Scalars keep their raw source text, so an answer cell can be
   compared byte for byte with the same value rendered by the
   benchmark. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string  (** raw token, quotes and escapes included *)
  | Num of string
  | Lit of string  (** true, false or null *)

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\n' | '\r' | '\t' -> incr pos; skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let string_token () =
    let start = !pos in
    incr pos;
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' -> pos := !pos + 2; go ()
        | _ -> incr pos; go ()
    in
    go ();
    String.sub s start (!pos - start)
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          skip ();
          let key = string_token () in
          let key = String.sub key 1 (String.length key - 2) in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; members ((key, v) :: acc))
          else (expect '}'; Obj (List.rev ((key, v) :: acc)))
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec elements acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (incr pos; elements (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        elements []
    | '"' -> Str (string_token ())
    | 't' | 'f' | 'n' ->
      let start = !pos in
      while !pos < n && s.[!pos] >= 'a' && s.[!pos] <= 'z' do incr pos done;
      Lit (String.sub s start (!pos - start))
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do incr pos done;
      if !pos = start then fail "unexpected character";
      Num (String.sub s start (!pos - start))
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function
  | Num x -> float_of_string_opt x
  | _ -> None

let to_int = function
  | Num x -> int_of_string_opt x
  | _ -> None

let to_bool = function
  | Lit "true" -> Some true
  | Lit "false" -> Some false
  | _ -> None

let raw = function
  | Str x | Num x | Lit x -> x
  | Obj _ | Arr _ -> raise (Error "not a scalar")

let int_field key j = Option.bind (member key j) to_int
let float_field key j = Option.bind (member key j) to_float
let bool_field key j = Option.bind (member key j) to_bool
