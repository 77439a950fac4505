open Ispn_sim
open Ispn_util

let idle_mean ~avg_rate_pps ~peak_rate_pps ~burst_mean =
  burst_mean *. ((1. /. avg_rate_pps) -. (1. /. peak_rate_pps))

let create ~engine ~prng ~flow ~avg_rate_pps ?peak_rate_pps ?(burst_mean = 5.)
    ?(packet_bits = Units.packet_bits) ~emit () =
  let peak = Option.value peak_rate_pps ~default:(2. *. avg_rate_pps) in
  assert (avg_rate_pps > 0. && peak > avg_rate_pps);
  let idle = idle_mean ~avg_rate_pps ~peak_rate_pps:peak ~burst_mean in
  assert (idle > 0.);
  let running = ref false in
  let count = ref 0 in
  let next_seq = ref 0 in
  (* Wrapped once: passing [~size_bits] would build a [Some] per packet. *)
  let size_bits = Some packet_bits in
  let send () =
    let pkt =
      Packet.make ~flow ~seq:!next_seq ?size_bits
        ~created:(Engine.now engine) ()
    in
    incr next_seq;
    incr count;
    emit pkt
  in
  (* A burst emits [remaining] packets, one per peak-rate slot, then the
     source idles for an exponential period.  The idle clock starts after
     the last packet's peak-rate slot, so a burst of N packets occupies N/P
     seconds and the mean rate satisfies the Appendix relation
     1/A = I/B + 1/P exactly.  The burst counter lives in a ref and every
     event is one of the source's own callbacks ([next], [start_burst]),
     so the steady state allocates no closure per packet. *)
  let spacing = 1. /. peak in
  let remaining = ref 0 in
  let rec burst () =
    if !running then begin
      send ();
      ignore (Engine.schedule_after engine ~delay:spacing next)
    end
  and next () =
    if !remaining > 1 then begin
      decr remaining;
      burst ()
    end
    else go_idle ()
  and go_idle () =
    let pause = Dist.exponential prng ~mean:idle in
    ignore (Engine.schedule_after engine ~delay:pause start_burst)
  and start_burst () =
    if !running then begin
      remaining := Dist.geometric prng ~mean:burst_mean;
      burst ()
    end
  in
  let start () =
    if not !running then begin
      running := true;
      (* Begin in the idle state so sources with distinct PRNG streams
         desynchronize immediately. *)
      go_idle ()
    end
  in
  let stop () = running := false in
  { Source.start; stop; generated = (fun () -> !count) }
