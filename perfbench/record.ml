(* The benchmark's result record: one JSON object on the last line of
   standard output, with exactly the keys [correct], [attempted],
   [failed] and [metrics]. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit, at
   most 64 characters. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* Units: at most 16 of letters, digits and [_/%.-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_alnum c || String.contains "_/%.-" c) s

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("metric name: " ^ name);
  if not (valid_unit unit_) then invalid_arg ("metric unit: " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "metric %s: non-finite value" name);
  { name; value; unit_ }

let to_json (r : t) : Json.t =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             r.metrics) );
    ]

let of_json (j : Json.t) : t =
  let int_of k =
    match Json.member k j with
    | Json.Num x when Float.is_integer x -> int_of_float x
    | _ -> failwith ("record: missing integer " ^ k)
  in
  let correct =
    match Json.member "correct" j with
    | Json.Bool b -> b
    | _ -> failwith "record: missing correct"
  in
  let metrics =
    match Json.member "metrics" j with
    | Json.Obj l ->
        List.map
          (fun (name, m) ->
            match (Json.member "value" m, Json.member "unit" m) with
            | Json.Num v, Json.Str u -> metric name u v
            | _ -> failwith ("record: malformed metric " ^ name))
          l
    | _ -> failwith "record: missing metrics"
  in
  { correct; attempted = int_of "attempted"; failed = int_of "failed"; metrics }

let to_string r = Json.to_string (to_json r)
let of_string s = of_json (Json.of_string s)
