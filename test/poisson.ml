(* Poisson source: exponential inter-arrival times.  The paper's real-time
   sources are on/off Markov, so only the tests use this one: Poisson
   packets through a FIFO link are the M/D/1 queue test_analytic.ml checks
   the simulator against. *)

open Ispn_sim
open Ispn_util

let create ~engine ~prng ~flow ~rate_pps ~emit () =
  assert (rate_pps > 0.);
  let running = ref false in
  let count = ref 0 in
  let next_seq = ref 0 in
  let rec tick () =
    if !running then begin
      let pkt =
        Packet.make ~flow ~seq:!next_seq ~created:(Engine.now engine) ()
      in
      incr next_seq;
      incr count;
      emit pkt;
      let gap = Dist.exponential prng ~mean:(1. /. rate_pps) in
      ignore (Engine.schedule_after engine ~delay:gap tick)
    end
  in
  let start () =
    if not !running then begin
      running := true;
      let gap = Dist.exponential prng ~mean:(1. /. rate_pps) in
      ignore (Engine.schedule_after engine ~delay:gap tick)
    end
  in
  let stop () = running := false in
  { Ispn_traffic.Source.start; stop; generated = (fun () -> !count) }
