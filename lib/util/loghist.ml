(* Geometric buckets over a dense int array: [add] must stay allocation-free
   (it runs under the link dequeue tap on every packet), so the index is
   computed with [log10] and everything is stored into preallocated int
   slots.  counts.(0) is underflow, counts.(n + 1) overflow, regular bucket
   [i] lives at [i + 1]. *)

type t = {
  lo : float;
  hi : float;
  per_decade : int;
  scale : float; (* per_decade as float, cached for the index computation *)
  n : int; (* regular buckets *)
  counts : int array;
  mutable total : int;
}

let create ?(lo = 1e-6) ?(hi = 1e3) ?(per_decade = 20) () =
  if not (lo > 0. && hi > lo) then
    invalid_arg "Loghist.create: need 0 < lo < hi";
  if per_decade <= 0 then invalid_arg "Loghist.create: per_decade must be > 0";
  let n =
    int_of_float (Float.ceil (Float.log10 (hi /. lo) *. float_of_int per_decade))
  in
  {
    lo;
    hi;
    per_decade;
    scale = float_of_int per_decade;
    n;
    counts = Array.make (n + 2) 0;
    total = 0;
  }

let add t v =
  let i =
    if v < t.lo then 0
    else
      let k = int_of_float (Float.log10 (v /. t.lo) *. t.scale) in
      if k >= t.n then t.n + 1 else k + 1
  in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total
let underflow t = t.counts.(0)
let overflow t = t.counts.(t.n + 1)
let ratio t = Float.pow 10. (1. /. float_of_int t.per_decade)

let lower_edge t i = t.lo *. Float.pow 10. (float_of_int i /. t.scale)

let representative t i =
  (* Geometric midpoint of regular bucket [i - 1]; the under/overflow
     buckets have no finite midpoint, so report their bounding edge. *)
  if i = 0 then 0.
  else if i = t.n + 1 then t.hi
  else t.lo *. Float.pow 10. ((float_of_int (i - 1) +. 0.5) /. t.scale)

let percentile t p =
  if t.total = 0 then invalid_arg "Loghist.percentile: empty histogram";
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Loghist.percentile: p outside [0, 100]";
  (* Nearest rank: the smallest index whose cumulative count reaches
     ceil(p/100 * total), i.e. the bucket holding the rank'th sample. *)
  let rank =
    Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.total)))
  in
  let i = ref 0 in
  let cum = ref t.counts.(0) in
  while !cum < rank do
    incr i;
    cum := !cum + t.counts.(!i)
  done;
  representative t !i

let buckets t =
  let acc = ref [] in
  for i = t.n downto 1 do
    if t.counts.(i) > 0 then
      acc := (lower_edge t (i - 1), lower_edge t i, t.counts.(i)) :: !acc
  done;
  !acc

let render ~unit_label t =
  let lines =
    (Printf.sprintf "%10s<%-10.2f" "" t.lo, underflow t)
    :: List.map
         (fun (lo, hi, n) -> (Printf.sprintf "%10.2f-%-10.2f" lo hi, n))
         (buckets t)
    @ [ (Printf.sprintf "%10s>=%-9.2f" "" t.hi, overflow t) ]
  in
  let peak = List.fold_left (fun m (_, n) -> Stdlib.max m n) 1 lines in
  let b = Buffer.create 1024 in
  List.iter
    (fun (range, n) ->
      if n > 0 then
        Printf.bprintf b "%s %s |%s %d\n" range unit_label
          (String.make (n * 50 / peak) '#')
          n)
    lines;
  Buffer.contents b
