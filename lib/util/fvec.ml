type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 64) () =
  { data = Array.make (Int.max 1 capacity) 0.; len = 0 }

let length t = t.len

let grow t =
  let bigger = Array.make (2 * t.len) 0. in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let push_from t a i =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- a.(i);
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get";
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let sum t =
  let s = ref 0. in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let max ~init t =
  let m = ref init in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if not (!m >= x) then m := x
  done;
  !m
