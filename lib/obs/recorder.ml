type kind = Enqueue | Dequeue | Tx_start | Deliver | Drop
type cause = No_cause | Buffer | Down | Wire

let kind_code = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Tx_start -> 2
  | Deliver -> 3
  | Drop -> 4

let kind_of_code = function
  | 0 -> Enqueue
  | 1 -> Dequeue
  | 2 -> Tx_start
  | 3 -> Deliver
  | _ -> Drop

let cause_code = function No_cause -> 0 | Buffer -> 1 | Down -> 2 | Wire -> 3

let cause_of_code = function
  | 1 -> Buffer
  | 2 -> Down
  | 3 -> Wire
  | _ -> No_cause

(* Parallel scalar arrays: recording stores into preallocated unboxed slots
   (float arrays are flat), so a record call allocates nothing in the
   ring. *)
type t = {
  cap : int;
  mutable len : int;
  mutable next : int;
  times : float array;
  kinds : int array;
  links : int array;
  flows : int array;
  seqs : int array;
  classes : int array;
  offsets : float array;
  values : float array;
  causes : int array;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be > 0";
  {
    cap = capacity;
    len = 0;
    next = 0;
    times = Array.make capacity 0.;
    kinds = Array.make capacity 0;
    links = Array.make capacity 0;
    flows = Array.make capacity 0;
    seqs = Array.make capacity 0;
    classes = Array.make capacity 0;
    offsets = Array.make capacity 0.;
    values = Array.make capacity 0.;
    causes = Array.make capacity 0;
  }

let record t ~time ~kind ~link ~flow ~seq ~cls ~offset ~value ~cause =
  let i = t.next in
  t.times.(i) <- time;
  t.kinds.(i) <- kind_code kind;
  t.links.(i) <- link;
  t.flows.(i) <- flow;
  t.seqs.(i) <- seq;
  t.classes.(i) <- cls;
  t.offsets.(i) <- offset;
  t.values.(i) <- value;
  t.causes.(i) <- cause_code cause;
  t.next <- (i + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1

type event = {
  time : float;
  kind : kind;
  link : int;
  flow : int;
  seq : int;
  cls : int;
  offset : float;
  value : float;
  cause : cause;
}

let event_at t i =
  {
    time = t.times.(i);
    kind = kind_of_code t.kinds.(i);
    link = t.links.(i);
    flow = t.flows.(i);
    seq = t.seqs.(i);
    cls = t.classes.(i);
    offset = t.offsets.(i);
    value = t.values.(i);
    cause = cause_of_code t.causes.(i);
  }

let iter t f =
  let start = if t.len < t.cap then 0 else t.next in
  for k = 0 to t.len - 1 do
    f (event_at t ((start + k) mod t.cap))
  done

let events t =
  let acc = ref [] in
  iter t (fun ev -> acc := ev :: !acc);
  List.rev !acc

let length t = t.len
let capacity t = t.cap

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Tx_start -> "tx-start"
  | Deliver -> "deliver"
  | Drop -> "drop"

let cause_name = function
  | No_cause -> "-"
  | Buffer -> "buffer"
  | Down -> "down"
  | Wire -> "wire"

let to_csv t =
  let buf = Buffer.create (64 * t.len) in
  Buffer.add_string buf "time,kind,link,flow,seq,cls,offset,value,cause\n";
  iter t (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "%.9g,%s,%d,%d,%d,%d,%.9g,%.9g,%s\n" ev.time
           (kind_name ev.kind) ev.link ev.flow ev.seq ev.cls ev.offset
           ev.value
           (cause_name ev.cause)));
  Buffer.contents buf

let write_csv path t =
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc
