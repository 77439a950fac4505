(* All-float record: every field update is an unboxed store, so [add]
   allocates nothing.  (A mixed int/float record boxes each float it
   stores.)  The count is a float too; it stays exact up to 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0.; mean = 0.; min = infinity; max = neg_infinity }

let add t x =
  let n = t.n +. 1. in
  t.n <- n;
  t.mean <- t.mean +. ((x -. t.mean) /. n);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = int_of_float t.n
let mean t = if t.n = 0. then 0. else t.mean
let min t = t.min
let max t = t.max
