type t = { mutable data : int array; mutable head : int; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = Stdlib.max capacity 1 in
  { data = Array.make capacity 0; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) 0 in
  (* Linearize: head moves to slot 0 of the doubled array. *)
  let first = Stdlib.min t.len (cap - t.head) in
  Array.blit t.data t.head data 0 first;
  Array.blit t.data 0 data first (t.len - first);
  t.data <- data;
  t.head <- 0

let push t x =
  if t.len = Array.length t.data then grow t;
  let cap = Array.length t.data in
  let tail = t.head + t.len in
  let tail = if tail >= cap then tail - cap else tail in
  t.data.(tail) <- x;
  t.len <- t.len + 1

let peek_exn t =
  if t.len = 0 then invalid_arg "Ring.peek_exn: empty";
  t.data.(t.head)

let pop_exn t =
  if t.len = 0 then invalid_arg "Ring.pop_exn: empty";
  let x = t.data.(t.head) in
  let head = t.head + 1 in
  t.head <- (if head = Array.length t.data then 0 else head);
  t.len <- t.len - 1;
  x
