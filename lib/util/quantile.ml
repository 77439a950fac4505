(* Nearest-rank: smallest index i such that (i+1)/n >= q. *)
let rank ~fn n q =
  if n = 0 then invalid_arg (fn ^ ": empty");
  if q < 0. || q > 1. then invalid_arg (fn ^ ": q out of range");
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  if rank <= 0 then 0 else Int.min (n - 1) (rank - 1)

let of_sorted a q = a.(rank ~fn:"Quantile.of_sorted" (Array.length a) q)

let swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Heapsort of [a.(lo) .. a.(hi)]: the selection's base case and its
   fallback, so that no input costs more than O(n log n). *)
let heapsort (a : float array) lo hi =
  let n = hi - lo + 1 in
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && a.(lo + child) < a.(lo + child + 1) then child + 1
        else child
      in
      if a.(lo + root) < a.(lo + child) then begin
        swap a (lo + root) (lo + child);
        sift child len
      end
    end
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift 0 last
  done

(* Hoare's FIND (CACM 4(7), 1961) in Wirth's form, around the median of
   the range's first, middle and last elements.  Each round leaves
   [a.(lo) .. a.(j)] <= pivot <= [a.(i) .. a.(hi)] with [j < i], and
   stops both scans on elements equal to the pivot, so ties split the
   range evenly.  Short ranges, and any range left after [budget] rounds,
   are sorted. *)
let rec find (a : float array) lo hi k budget =
  if hi - lo < 16 || budget = 0 then begin
    heapsort a lo hi;
    a.(k)
  end
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while pivot < a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if k <= !j then find a lo !j k (budget - 1)
    else if k >= !i then find a !i hi k (budget - 1)
    else a.(k)
  end

let select a q =
  let n = Array.length a in
  let k = rank ~fn:"Quantile.select" n q in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  find a 0 (n - 1) k (2 * log2 n)

let percentile v p = select (Fvec.to_array v) (p /. 100.)
