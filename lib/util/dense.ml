(* The smallest power-of-two multiple of [len] above [i]. *)
let rec size len i = if len > i then len else size (2 * len) i

let fit a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (size (Int.max 32 (2 * n)) i) fill in
    Array.blit a 0 b 0 n;
    b
  end
