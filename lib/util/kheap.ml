(* Structure-of-arrays min-heap on (float key, int seq) over int payloads.
   The sift loops are written as while-loops over local array bindings so
   every key comparison compiles to a bare float compare and the element
   being placed stays in registers, and the pop picks the lesser child
   from comparison results instead of a branch.  Every array is a float or an int
   array, so each store is a plain move with no write barrier; nothing on
   the push/pop path allocates (growth aside). *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable data : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let capacity = Int.max capacity 1 in
  {
    keys = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    data = Array.make capacity 0;
    len = 0;
    next_seq = 0;
  }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let data = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.data <- data

let push_pinned t ~key ~seq x =
  if t.len = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and data = t.data in
  (* Hole insertion: walk the hole up past every strictly-greater parent,
     then write (key, seq, x) once. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let placing = ref true in
  while !placing && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = keys.(p) in
    if pk < key || (pk = key && seqs.(p) < seq) then placing := false
    else begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(p);
      data.(!i) <- data.(p);
      i := p
    end
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  data.(!i) <- x

let push t ~key x =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_pinned t ~key ~seq x

let min_key_exn t =
  if t.len = 0 then invalid_arg "Kheap.min_key_exn: empty";
  t.keys.(0)

let min_seq_exn t =
  if t.len = 0 then invalid_arg "Kheap.min_seq_exn: empty";
  t.seqs.(0)

(* 1 when entry [i] comes before entry [j] by (key, seq), else 0, with no
   jump: a compare-and-set per test. *)
let[@inline] before (keys : float array) (seqs : int array) i j =
  let ki = keys.(i) and kj = keys.(j) in
  Bool.to_int (ki < kj)
  lor (Bool.to_int (ki = kj) land Bool.to_int (seqs.(i) < seqs.(j)))

let pop_exn t =
  if t.len = 0 then invalid_arg "Kheap.pop_exn: empty";
  let keys = t.keys and seqs = t.seqs and data = t.data in
  let top = data.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the last element down from the root hole. *)
    let key = keys.(n) and seq = seqs.(n) and x = data.(n) in
    let i = ref 0 in
    let placing = ref true in
    while !placing do
      let l = (2 * !i) + 1 in
      if l >= n then placing := false
      else begin
        let r = l + 1 in
        (* On equal (key, seq) pairs, which pinned pushes can make, [l]
           wins, as it always has. *)
        let c = if r < n then l + before keys seqs r l else l in
        let ck = keys.(c) in
        if ck < key || (ck = key && seqs.(c) < seq) then begin
          keys.(!i) <- ck;
          seqs.(!i) <- seqs.(c);
          data.(!i) <- data.(c);
          i := c
        end
        else placing := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    data.(!i) <- x
  end;
  top
