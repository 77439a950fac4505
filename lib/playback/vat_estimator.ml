(* The EWMA gain for [d] and [v], the [k] in [d + k v], and the spike
   mode's entry and exit thresholds in deviations. *)
let gain = 1. /. 16.
let k = 4.
let spike_threshold = 8.
let spike_exit = 2.

type t = {
  mutable d : float;
  mutable v : float;
  mutable n : int;
  mutable spike : bool;
}

let create () =
  {
    d = 0.;
    v = 0.;
    n = 0;
    spike = false;
  }

let observe t x =
  if t.n = 0 then begin
    t.d <- x;
    t.v <- x /. 2.
  end
  else if t.spike then begin
    (* Follow the spike aggressively; leave once delays settle back. *)
    t.d <- (t.d /. 2.) +. (x /. 2.);
    if x <= t.d +. (spike_exit *. t.v) then t.spike <- false
  end
  else if x > t.d +. (spike_threshold *. Ispn_util.Fcmp.fmax t.v 1e-6)
  then begin
    t.spike <- true;
    t.d <- x
  end
  else begin
    t.d <- t.d +. (gain *. (x -. t.d));
    t.v <- t.v +. (gain *. (Float.abs (x -. t.d) -. t.v))
  end;
  t.n <- t.n + 1

let estimate t = if t.n = 0 then 0. else t.d +. (k *. t.v)
let count t = t.n
let in_spike t = t.spike
