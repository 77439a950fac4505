type t = {
  rate_bps : float;
  depth_bits : float;
  mutable tokens : float;
  mutable last_refill : float;
}

let create ~rate_bps ~depth_bits () =
  assert (rate_bps > 0. && depth_bits > 0.);
  { rate_bps; depth_bits; tokens = depth_bits; last_refill = 0. }


let refill t ~now =
  assert (now >= t.last_refill -. 1e-9);
  if now > t.last_refill then begin
    (* [Ispn_util.Fcmp.fmin depth filled], written out: a call across
       modules would box both floats on every policed packet. *)
    let filled = t.tokens +. ((now -. t.last_refill) *. t.rate_bps) in
    t.tokens <- (if t.depth_bits <= filled then t.depth_bits else filled);
    t.last_refill <- now
  end

let conforms t ~now ~bits =
  refill t ~now;
  let need = float_of_int bits in
  if t.tokens >= need -. 1e-9 then begin
    t.tokens <- t.tokens -. need;
    true
  end
  else false

let level_bits t ~now =
  refill t ~now;
  t.tokens

type mode = Drop | Pass

type policer = {
  engine : Ispn_sim.Engine.t;
  pa : Ispn_sim.Packet.arena;
  bucket : t;
  mode : mode;
  next : Ispn_sim.Packet.t -> unit;
  mutable offered : int;
  mutable dropped : int;
  mutable violations : int;
}

let policer ~engine ~bucket ~mode ~next =
  let pa = Ispn_sim.Packet.arena () in
  { engine; pa; bucket; mode; next; offered = 0; dropped = 0; violations = 0 }

let police p pkt =
  p.offered <- p.offered + 1;
  let now = Ispn_sim.Engine.now p.engine in
  if conforms p.bucket ~now ~bits:p.pa.Ispn_sim.Packet.size_bits.(pkt) then
    p.next pkt
  else begin
    p.violations <- p.violations + 1;
    match p.mode with
    | Drop ->
        p.dropped <- p.dropped + 1;
        (* Policer drop is terminal: the handle dies here. *)
        Ispn_sim.Packet.free pkt
    | Pass -> p.next pkt
  end

let admit_fn p = police p
let offered p = p.offered
let dropped p = p.dropped
let violations p = p.violations
