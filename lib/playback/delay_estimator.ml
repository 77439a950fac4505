type t = {
  window : int;
  quantile : float;
  margin : float;
  buf : float array;
  mutable n : int;  (* total observations *)
}

let create ?(window = 200) ?(quantile = 0.99) ?(margin = 0.) () =
  assert (window > 0 && quantile >= 0. && quantile <= 1.);
  { window; quantile; margin; buf = Array.make window 0.; n = 0 }

let observe t d =
  t.buf.(t.n mod t.window) <- d;
  t.n <- t.n + 1

let count t = t.n

let estimate t =
  if t.n = 0 then t.margin
  else begin
    let live = Int.min t.n t.window in
    t.margin
    +. Ispn_util.Quantile.select (Array.sub t.buf 0 live) t.quantile
  end
