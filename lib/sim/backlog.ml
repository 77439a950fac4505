open Ispn_util

type t = { samples : Fvec.t; stats : Stats.t }

let watch ~engine ~link ?(interval = 0.01) () =
  assert (interval > 0.);
  let t = { samples = Fvec.create (); stats = Stats.create () } in
  let qdisc = Link.qdisc link in
  let rec tick () =
    let depth = float_of_int (qdisc.Qdisc.length ()) in
    Fvec.push t.samples depth;
    Stats.add t.stats depth;
    ignore (Engine.schedule_after engine ~delay:interval tick)
  in
  ignore (Engine.schedule_after engine ~delay:interval tick);
  t

let samples t = t.samples
let count t = Fvec.length t.samples
let mean t = Stats.mean t.stats
let max t = if count t = 0 then 0. else Stats.max t.stats
let percentile t p = Quantile.percentile t.samples p

let histogram t =
  let hi = Fcmp.fmax 2. (max t +. 1.) in
  let h = Loghist.create ~lo:1. ~hi ~per_decade:10 () in
  Fvec.iter (Loghist.add h) t.samples;
  h
