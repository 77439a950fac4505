module Stats = Ispn_util.Stats

type value = Int of int | Float of float

(* Samplers may decline to produce a value at snapshot time (an empty
   distribution has no min/max) — those instruments are simply absent from
   the snapshot rather than rendered as a fake 0. *)
type t = { mutable samplers : (string * (unit -> value option)) list }

let create () = { samplers = [] }

let register_opt t name sample =
  if List.exists (fun (n, _) -> String.equal n name) t.samplers then
    invalid_arg (Printf.sprintf "Metrics.register: duplicate name %S" name);
  t.samplers <- (name, sample) :: t.samplers

let register t name sample = register_opt t name (fun () -> Some (sample ()))
let register_int t name f = register t name (fun () -> Int (f ()))
let register_float t name f = register t name (fun () -> Float (f ()))

let register_stats t name st =
  register_int t (name ^ ".count") (fun () -> Stats.count st);
  register_float t (name ^ ".mean") (fun () -> Stats.mean st);
  register_opt t (name ^ ".min") (fun () ->
      if Stats.count st = 0 then None else Some (Float (Stats.min st)));
  register_opt t (name ^ ".max") (fun () ->
      if Stats.count st = 0 then None else Some (Float (Stats.max st)))

let dist t name =
  let st = Stats.create () in
  register_stats t name st;
  st

type snapshot = (string * value) list

let snapshot t =
  List.filter_map
    (fun (name, sample) ->
      match sample () with Some v -> Some (name, v) | None -> None)
    t.samplers
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)


let value_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f

let flatten labeled =
  List.concat_map
    (fun (label, snap) ->
      List.map
        (fun (name, v) ->
          ((if label = "" then name else label ^ "." ^ name), v))
        snap)
    labeled

let render_json labeled =
  let entries = flatten labeled in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  let last = List.length entries - 1 in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  %S: %s%s\n" name (value_string v)
           (if i = last then "" else ",")))
    entries;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let render_csv labeled =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "name,value\n";
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "%s,%s\n" name (value_string v)))
    (flatten labeled);
  Buffer.contents buf

let write_file path labeled =
  let rendered =
    if Filename.check_suffix path ".csv" then render_csv labeled
    else render_json labeled
  in
  let oc = open_out path in
  output_string oc rendered;
  close_out oc
