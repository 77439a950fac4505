module Loghist = Ispn_util.Loghist

type t = {
  s_interval : float;
  metrics : Metrics.t;
  mutable rev_rows : (float * Metrics.snapshot) list;
  mutable n : int;
}

let create ?(interval = 1.0) ~metrics () =
  if not (interval > 0.) then
    invalid_arg "Series.create: interval must be positive";
  { s_interval = interval; metrics; rev_rows = []; n = 0 }

let interval t = t.s_interval

let sample t ~now =
  t.rev_rows <- (now, Metrics.snapshot t.metrics) :: t.rev_rows;
  t.n <- t.n + 1

let length t = t.n

(* --- Export --------------------------------------------------------------- *)

type hist_summary = {
  hs_count : int;
  hs_underflow : int;
  hs_overflow : int;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_p999 : float;
  hs_buckets : (float * float * int) list;
}

type export = {
  ex_interval : float;
  ex_times : float array;
  ex_columns : (string * float array) list;
  ex_hists : (string * hist_summary) list;
}

let float_of_value = function
  | Metrics.Int i -> float_of_int i
  | Metrics.Float f -> f

(* Snapshots are name-sorted, but the column set can differ between ticks
   (option instruments appear once non-empty), so columns are built over
   the union of names with absent cells reading 0. *)
let columns_of_rows rows =
  let module S = Set.Make (String) in
  let names =
    List.fold_left
      (fun acc (_, snap) ->
        List.fold_left (fun acc (name, _) -> S.add name acc) acc snap)
      S.empty rows
  in
  let n_rows = List.length rows in
  List.map
    (fun name ->
      let col = Array.make n_rows 0. in
      List.iteri
        (fun i (_, snap) ->
          match List.find_opt (fun (n, _) -> String.equal n name) snap with
          | Some (_, v) -> col.(i) <- float_of_value v
          | None -> ())
        rows;
      (name, col))
    (S.elements names)

let summarize h =
  {
    hs_count = Loghist.count h;
    hs_underflow = Loghist.underflow h;
    hs_overflow = Loghist.overflow h;
    hs_p50 = Loghist.percentile h 50.;
    hs_p90 = Loghist.percentile h 90.;
    hs_p99 = Loghist.percentile h 99.;
    hs_p999 = Loghist.percentile h 99.9;
    hs_buckets = Loghist.buckets h;
  }

let export ?hist t =
  let rows = List.rev t.rev_rows in
  {
    ex_interval = t.s_interval;
    ex_times = Array.of_list (List.map fst rows);
    ex_columns = columns_of_rows rows;
    ex_hists =
      (match hist with
      | None -> []
      | Some h ->
          List.filter_map
            (fun (name, lh) ->
              if Loghist.count lh = 0 then None
              else Some (name, summarize lh))
            (Hist.export h));
  }

(* --- Rendering ------------------------------------------------------------ *)

let fnum f = Printf.sprintf "%.9g" f

let add_float_array buf a =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (fnum v))
    a;
  Buffer.add_char buf ']'

let add_json_export buf ex =
  Buffer.add_string buf "{\n    \"interval\": ";
  Buffer.add_string buf (fnum ex.ex_interval);
  Buffer.add_string buf ",\n    \"times\": ";
  add_float_array buf ex.ex_times;
  Buffer.add_string buf ",\n    \"series\": {";
  List.iteri
    (fun i (name, col) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n      %S: " name);
      add_float_array buf col)
    ex.ex_columns;
  Buffer.add_string buf "\n    },\n    \"hist\": {";
  List.iteri
    (fun i (name, hs) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n      %S: {\n        \"count\": %d, \"underflow\": %d, \
            \"overflow\": %d,\n        \"p50\": %s, \"p90\": %s, \"p99\": \
            %s, \"p999\": %s,\n        \"buckets\": ["
           name hs.hs_count hs.hs_underflow hs.hs_overflow (fnum hs.hs_p50)
           (fnum hs.hs_p90) (fnum hs.hs_p99) (fnum hs.hs_p999));
      List.iteri
        (fun j (lo, hi, c) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "[%s, %s, %d]" (fnum lo) (fnum hi) c))
        hs.hs_buckets;
      Buffer.add_string buf "]\n      }")
    ex.ex_hists;
  Buffer.add_string buf "\n    }\n  }"

let render_json labeled =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (label, ex) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n  %S: " label);
      add_json_export buf ex)
    labeled;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let render_csv labeled =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "label,time,name,value\n";
  List.iter
    (fun (label, ex) ->
      List.iter
        (fun (name, col) ->
          Array.iteri
            (fun i v ->
              Buffer.add_string buf
                (Printf.sprintf "%s,%s,%s,%s\n" label (fnum ex.ex_times.(i))
                   name (fnum v)))
            col)
        ex.ex_columns;
      List.iter
        (fun (name, hs) ->
          let row suffix v =
            Buffer.add_string buf
              (Printf.sprintf "%s,,hist.%s.%s,%s\n" label name suffix v)
          in
          row "count" (string_of_int hs.hs_count);
          row "p50" (fnum hs.hs_p50);
          row "p90" (fnum hs.hs_p90);
          row "p99" (fnum hs.hs_p99);
          row "p999" (fnum hs.hs_p999))
        ex.ex_hists)
    labeled;
  Buffer.contents buf

let write_file path labeled =
  let rendered =
    if Filename.check_suffix path ".csv" then render_csv labeled
    else render_json labeled
  in
  let oc = open_out path in
  output_string oc rendered;
  close_out oc
