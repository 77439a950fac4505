(* All-float record: OCaml stores it flat, so [update] writes both fields
   in place without boxing — it runs once per packet on the FIFO+ and CSZ
   dequeue paths.  [n] counts observations, so the first one is told
   apart; float precision is exact far beyond any simulation length. *)
type t = { gain : float; mutable avg : float; mutable n : float }

let create ~gain () =
  assert (gain > 0. && gain <= 1.);
  { gain; avg = 0.; n = 0. }

let update t x =
  if t.n = 0. then t.avg <- x
  else t.avg <- t.avg +. (t.gain *. (x -. t.avg));
  t.n <- t.n +. 1.

let value t = t.avg
