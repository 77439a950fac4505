(* Packets are int handles into a per-domain struct-of-arrays arena.
   Field reads and writes are plain array indexing, so the hot per-hop
   stores (enqueued_at, qdelay_total, offset) are unboxed float array
   writes — a mutable float field of the old mixed record boxed a fresh
   float on every store.  Slots recycle through a free list with
   take/release accounting (audited like the link buffer pools); handle 0
   is a permanent dummy for packet fields not yet holding a packet.

   The arena is domain-local (Domain.DLS): every simulation runs wholly
   inside one domain ([Ispn_exec.Pool] jobs), so its packets live and die
   in that domain's arena and no cross-domain handle exists.  Handle
   VALUES depend on the domain's allocation history and are therefore not
   [-j]-deterministic — never order, hash, or print by handle; use the
   [flow]/[seq] fields.  The [route] column caches the packet's [Fwd]
   slot once its first switch has looked it up; [make] resets it to -1,
   and its values depend on the install order. *)

type kind = Data | Ack

type arena = {
  mutable flow : int array;
  mutable seq : int array;
  mutable size_bits : int array;
  mutable kind : kind array;
  mutable created : float array;
  mutable offset : float array;
  mutable qdelay_total : float array;
  mutable enqueued_at : float array;
  mutable hops : int array;
  mutable route : int array;
  mutable alive : bool array;
  mutable free_list : int array;
  mutable free_len : int;
  mutable used : int; (* slots handed out at least once, incl. the dummy *)
  mutable takes : int;
  mutable releases : int;
  mutable in_use : int;
  mutable hwm : int;
  mutable bad_frees : int;
}

type t = int

let initial_capacity = 256

let new_arena () =
  let a =
    {
      flow = Array.make initial_capacity (-1);
      seq = Array.make initial_capacity (-1);
      size_bits = Array.make initial_capacity 0;
      kind = Array.make initial_capacity Data;
      created = Array.make initial_capacity 0.;
      offset = Array.make initial_capacity 0.;
      qdelay_total = Array.make initial_capacity 0.;
      enqueued_at = Array.make initial_capacity 0.;
      hops = Array.make initial_capacity 0;
      route = Array.make initial_capacity (-1);
      alive = Array.make initial_capacity false;
      free_list = Array.make initial_capacity 0;
      free_len = 0;
      used = 1;
      takes = 0;
      releases = 0;
      in_use = 0;
      hwm = 0;
      bad_frees = 0;
    }
  in
  (* Slot 0: the permanent dummy (never allocated, never freed). *)
  a.alive.(0) <- true;
  a

let key = Domain.DLS.new_key new_arena
let arena () = Domain.DLS.get key

let grow a =
  let old = Array.length a.flow in
  let extend_i src = Array.append src (Array.make old 0) in
  a.flow <- extend_i a.flow;
  a.seq <- extend_i a.seq;
  a.size_bits <- extend_i a.size_bits;
  a.kind <- Array.append a.kind (Array.make old Data);
  let extend_f src = Array.append src (Array.make old 0.) in
  a.created <- extend_f a.created;
  a.offset <- extend_f a.offset;
  a.qdelay_total <- extend_f a.qdelay_total;
  a.enqueued_at <- extend_f a.enqueued_at;
  a.hops <- extend_i a.hops;
  a.route <- extend_i a.route;
  a.alive <- Array.append a.alive (Array.make old false);
  a.free_list <- extend_i a.free_list

let make ~flow ~seq ?(size_bits = Ispn_util.Units.packet_bits) ?(kind = Data)
    ~created () =
  let a = arena () in
  let i =
    if a.free_len > 0 then begin
      a.free_len <- a.free_len - 1;
      a.free_list.(a.free_len)
    end
    else begin
      if a.used = Array.length a.flow then grow a;
      let i = a.used in
      a.used <- i + 1;
      i
    end
  in
  a.flow.(i) <- flow;
  a.seq.(i) <- seq;
  a.size_bits.(i) <- size_bits;
  a.kind.(i) <- kind;
  a.created.(i) <- created;
  a.offset.(i) <- 0.;
  a.qdelay_total.(i) <- 0.;
  a.enqueued_at.(i) <- created;
  a.hops.(i) <- 0;
  a.route.(i) <- -1;
  a.alive.(i) <- true;
  a.takes <- a.takes + 1;
  a.in_use <- a.in_use + 1;
  if a.in_use > a.hwm then a.hwm <- a.in_use;
  i

let free p =
  if p > 0 then begin
    let a = arena () in
    if a.alive.(p) then begin
      a.alive.(p) <- false;
      a.free_list.(a.free_len) <- p;
      a.free_len <- a.free_len + 1;
      a.releases <- a.releases + 1;
      a.in_use <- a.in_use - 1
    end
    else a.bad_frees <- a.bad_frees + 1
  end

(* One byte per slot handed out so far: 1 where the slot was live. *)
type mark = Bytes.t

let mark () =
  let a = arena () in
  Bytes.init a.used (fun p -> if a.alive.(p) then '\001' else '\000')

let free_since m =
  let a = arena () in
  for p = 1 to a.used - 1 do
    if a.alive.(p) && (p >= Bytes.length m || Bytes.get m p = '\000') then
      free p
  done

let dummy () = 0
let flow p = (arena ()).flow.(p)
let seq p = (arena ()).seq.(p)
let size_bits p = (arena ()).size_bits.(p)
let kind p = (arena ()).kind.(p)
let created p = (arena ()).created.(p)
let offset p = (arena ()).offset.(p)
let qdelay_total p = (arena ()).qdelay_total.(p)
let hops p = (arena ()).hops.(p)
let set_offset p v = (arena ()).offset.(p) <- v
let set_qdelay_total p v = (arena ()).qdelay_total.(p) <- v
let set_enqueued_at p v = (arena ()).enqueued_at.(p) <- v
let set_hops p v = (arena ()).hops.(p) <- v

type pool_stats = {
  p_takes : int;
  p_releases : int;
  p_in_use : int;
  p_hwm : int;
  p_capacity : int;
  p_bad_frees : int;
}

let pool_stats () =
  let a = arena () in
  {
    p_takes = a.takes;
    p_releases = a.releases;
    p_in_use = a.in_use;
    p_hwm = a.hwm;
    p_capacity = Array.length a.flow;
    p_bad_frees = a.bad_frees;
  }
