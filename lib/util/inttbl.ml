let empty = min_int

type 'a t = {
  dummy : 'a;
  mutable keys : int array;  (* [empty] in a free slot *)
  mutable vals : 'a array;
  mutable bits : int;  (* capacity = 2^bits *)
  mutable size : int;
}

let initial_bits = 4

let create ~dummy () =
  {
    dummy;
    keys = Array.make (1 lsl initial_bits) empty;
    vals = Array.make (1 lsl initial_bits) dummy;
    bits = initial_bits;
    size = 0;
  }

let length t = t.size

(* Multiplicative hashing (the top [bits] bits of the product), so runs of
   consecutive keys spread out instead of forming one long probe run. *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr (Sys.int_size - t.bits)

(* The slot holding [k], or the free slot that ends its probe run. *)
let slot t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while
    let x = keys.(!i) in
    x <> k && x <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let mem t k = k <> empty && t.keys.(slot t k) = k

let find t k =
  let i = slot t k in
  if k <> empty && t.keys.(i) = k then t.vals.(i) else raise Not_found

let grow t =
  let keys = t.keys and vals = t.vals in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) empty;
  t.vals <- Array.make (1 lsl t.bits) t.dummy;
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = slot t k in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let replace t k v =
  if k = empty then invalid_arg "Inttbl.replace: min_int is not a key";
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

(* Backward-shift deletion: walk the probe run after the hole and pull
   back every entry whose home slot does not lie cyclically in
   (hole, j], so no lookup ever stops early at the hole. *)
let remove t k =
  let i = slot t k in
  if k <> empty && t.keys.(i) = k then begin
    let mask = Array.length t.keys - 1 in
    t.size <- t.size - 1;
    let hole = ref i and j = ref ((i + 1) land mask) in
    while t.keys.(!j) <> empty do
      let h = home t t.keys.(!j) in
      let stays =
        if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
      in
      if not stays then begin
        t.keys.(!hole) <- t.keys.(!j);
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.keys.(!hole) <- empty;
    t.vals.(!hole) <- t.dummy
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.size <- 0

let iter f t = Array.iteri (fun i k -> if k <> empty then f k t.vals.(i)) t.keys

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
