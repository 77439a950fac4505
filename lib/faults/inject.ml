module Engine = Ispn_sim.Engine
module Link = Ispn_sim.Link
module Packet = Ispn_sim.Packet
module Wire = Ispn_sim.Wire

type stats = {
  mutable downs : int;
  mutable repairs : int;
  mutable corrupted : int;
  mutable malformed : int;
  mutable mangled : int;
  mutable crashes : int;
}

(* Flip one uniformly random bit of the packet's wire encoding and try to
   deliver what decodes.  Identity-changing corruption is undeliverable:
   routing is per-flow (the network's forwarding table has no entry for a
   mangled flow id) and a wrong size or sequence would falsify the
   receiver's accounting, so those packets drop.  A survivor only had its jitter offset perturbed;
   we fold the decoded offset back into the in-transit packet so its
   bookkeeping fields (created, hop count, queueing total) stay intact. *)
let corrupt_packet stats prng (pkt : Packet.t) =
  match Wire.encode pkt with
  | exception Invalid_argument _ -> Some pkt
  | b ->
      stats.corrupted <- stats.corrupted + 1;
      let bit = Ispn_util.Prng.int prng ~bound:(8 * Bytes.length b) in
      let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor mask);
      (match Wire.decode ~created:(Packet.created pkt) b with
      | exception Wire.Malformed _ ->
          stats.malformed <- stats.malformed + 1;
          None
      | q ->
          (* [q] is a scratch decode; its fields are copied out below and
             the handle freed before returning. *)
          let mangled =
            Packet.flow q <> Packet.flow pkt
            || Packet.seq q <> Packet.seq pkt
            || Packet.size_bits q <> Packet.size_bits pkt
            || Packet.kind q <> Packet.kind pkt
          in
          let offset = Packet.offset q in
          Packet.free q;
          if mangled then begin
            stats.mangled <- stats.mangled + 1;
            None
          end
          else begin
            Packet.set_offset pkt offset;
            Some pkt
          end)

let apply ~engine ~links ?(on_agent_crash = fun ~switch:_ -> ())
    ?(corrupt_seed = 0x0FA17L) plan =
  let stats =
    { downs = 0; repairs = 0; corrupted = 0; malformed = 0; mangled = 0;
      crashes = 0 }
  in
  let n = Array.length links in
  let check_link link =
    if link < 0 || link >= n then
      invalid_arg (Printf.sprintf "Inject.apply: link %d out of range" link)
  in
  let at_or_now at = Ispn_util.Fcmp.fmax at (Engine.now engine) in
  (* One filter per corrupted link carrying all of that link's windows; the
     link's PRNG stream is split off in link order so plans stay
     deterministic however their events interleave. *)
  let windows = Hashtbl.create 7 in
  List.iter
    (function
      | Plan.Corrupt { link; from_; until; per_packet } ->
          check_link link;
          let prev = Option.value ~default:[] (Hashtbl.find_opt windows link) in
          Hashtbl.replace windows link ((from_, until, per_packet) :: prev)
      | _ -> ())
    plan;
  let corrupt_root = Ispn_util.Prng.create ~seed:corrupt_seed in
  Hashtbl.fold (fun link _ acc -> link :: acc) windows []
  |> List.sort Int.compare
  |> List.iter (fun link ->
         let ws = List.rev (Hashtbl.find windows link) in
         let prng = Ispn_util.Prng.split corrupt_root in
         Link.set_wire_filter links.(link) (fun pkt ->
             let now = Engine.now engine in
             let hit =
               List.exists
                 (fun (from_, until, per_packet) ->
                   now >= from_ && now < until
                   && Ispn_util.Prng.float prng < per_packet)
                 ws
             in
             if hit then corrupt_packet stats prng pkt else Some pkt));
  List.iter
    (function
      | Plan.Link_down { link; at; duration } ->
          check_link link;
          ignore
            (Engine.schedule engine ~at:(at_or_now at) (fun () ->
                 stats.downs <- stats.downs + 1;
                 Link.set_up links.(link) false));
          ignore
            (Engine.schedule engine ~at:(at_or_now (at +. duration)) (fun () ->
                 stats.repairs <- stats.repairs + 1;
                 Link.set_up links.(link) true))
      | Plan.Corrupt _ -> ()
      | Plan.Agent_crash { switch; at } ->
          ignore
            (Engine.schedule engine ~at:(at_or_now at) (fun () ->
                 stats.crashes <- stats.crashes + 1;
                 on_agent_crash ~switch)))
    plan;
  stats
