(* Polymorphic comparisons that polycmp must report. *)
type r = { a : int; b : float }

let _sum r = float_of_int r.a +. r.b
let _float_min (x : float) y = Stdlib.min x y
let _is_none (x : int option) = x = None
let _compare_records (x : r) y = compare x y
let _min_as_value = List.fold_left min 0 [ 1; 2 ]
let _mem (x : string) l = List.mem x l

(* Typed comparisons that it must not report, through a type
   abbreviation and on a constant-only variant too. *)
type secs = float
type kind = Up | Down

let _int_le (x : int) y = x <= y
let _float_le (x : float) y = x <= y
let _int_max = Int.max 1 2
let _compare_strings = compare "a" "b"
let _secs_le (x : secs) y = x <= y
let _same_kind (x : kind) y = x = y
let _kinds = (Up, Down)
