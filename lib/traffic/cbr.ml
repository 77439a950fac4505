open Ispn_sim
open Ispn_util

let create ~engine ~flow ~rate_pps ~emit () =
  assert (rate_pps > 0.);
  let running = ref false in
  let count = ref 0 in
  let next_seq = ref 0 in
  let gap = 1. /. rate_pps in
  let rec tick () =
    if !running then begin
      let pkt =
        Packet.make ~flow ~seq:!next_seq ~size_bits:Units.packet_bits
          ~created:(Engine.now engine) ()
      in
      incr next_seq;
      incr count;
      emit pkt;
      ignore (Engine.schedule_after engine ~delay:gap tick)
    end
  in
  let start () =
    if not !running then begin
      running := true;
      tick ()
    end
  in
  let stop () = running := false in
  { Source.start; stop; generated = (fun () -> !count) }
