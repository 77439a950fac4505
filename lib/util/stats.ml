(* All-float record: every field update is an unboxed store, so [add]
   allocates nothing.  (A mixed int/float record boxes each float it
   stores.)  The count is a float too; it stays exact up to 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  let n = t.n +. 1. in
  t.n <- n;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = int_of_float t.n
let mean t = if t.n = 0. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let min t = t.min
let max t = t.max
let total t = t.total

let merge a b =
  if a.n = 0. then { b with n = b.n }
  else if b.n = 0. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      total = a.total +. b.total;
    }
  end

let reset t =
  t.n <- 0.;
  t.mean <- 0.;
  t.m2 <- 0.;
  t.min <- infinity;
  t.max <- neg_infinity;
  t.total <- 0.
