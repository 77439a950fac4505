module Loghist = Ispn_util.Loghist

type t = {
  mutable channels : (string * Loghist.t) list;
  metrics : Metrics.t option;
}

let create ?metrics () = { channels = []; metrics }

let register_instruments m name h =
  let prefix = "hist." ^ name in
  Metrics.register_int m (prefix ^ ".count") (fun () -> Loghist.count h);
  List.iter
    (fun (suffix, p) ->
      Metrics.register_opt m (prefix ^ suffix) (fun () ->
          if Loghist.count h = 0 then None
          else Some (Metrics.Float (Loghist.percentile h p))))
    [ (".p50", 50.); (".p90", 90.); (".p99", 99.); (".p999", 99.9) ]

let channel t name =
  match List.assoc_opt name t.channels with
  | Some h -> h
  | None ->
      let h = Loghist.create () in
      t.channels <- (name, h) :: t.channels;
      (match t.metrics with
      | None -> ()
      | Some m -> register_instruments m name h);
      h

let export t =
  List.sort (fun (a, _) (b, _) -> compare a b) t.channels
