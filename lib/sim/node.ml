type port = Forward of Link.t | Deliver of (Packet.t -> unit)

(* Routes are installed by flow id but followed by route index.  Every
   flow id that [add_route] sees gets a dense index from the [Inttbl] its
   network made and handed to each of its switches; only [add_route]
   inserts into it, and it dies with the network.  Each switch keeps its
   ports in an array indexed by route index.  The first switch a packet
   reaches resolves its flow id with one [Inttbl.find] and caches the
   index in the packet's [route] column; every later switch forwards with
   an array load.  Within a network the index is one-to-one with flow
   ids, so each switch still forwards by its own port for the flow, a
   re-installed route takes effect at the next switch, and an unrouted
   flow fails.  A switch's array grows through [Dense.fit] until it holds
   the highest index routed there, so it is sized by the flows its network
   routes, not by the id range (signaling's control flows start at
   900 000), and never to the whole index up front; its first 32 slots
   hold the Figure-1 flows without a regrow.  Index values depend on the
   order routes were installed: never print, order or hash by them. *)

module Index = Ispn_util.Inttbl

type index = int Index.t

let index () = Index.create ~dummy:(-1) ()

(* The empty port slot, told apart by physical equality. *)
let unrouted = Deliver (fun _ -> ())

type t = {
  node_name : string;
  pa : Packet.arena;  (* this domain's packet arena, bound at create *)
  index : index;  (* its network's route index *)
  mutable ports : port array;  (* by route index; [unrouted] if none *)
  mutable received : int;
}

let create ~index ~name =
  {
    node_name = name;
    pa = Packet.arena ();
    index;
    ports = [||];
    received = 0;
  }

let add_route t ~flow port =
  let r =
    match Index.find t.index flow with
    | r -> r
    | exception Not_found ->
        let r = Index.length t.index in
        Index.replace t.index flow r;
        r
  in
  if r >= Array.length t.ports then
    t.ports <- Ispn_util.Dense.fit t.ports r unrouted;
  t.ports.(r) <- port

let no_route t pkt =
  failwith
    (Printf.sprintf "Node %s: no route for flow %d" t.node_name
       t.pa.Packet.flow.(pkt))

(* Looks the flow up without inserting, so the ids of unrouted packets
   (a corrupted decode yields many) never grow the index. *)
let resolve t pkt =
  let pa = t.pa in
  match Index.find t.index pa.Packet.flow.(pkt) with
  | r ->
      pa.Packet.route.(pkt) <- r;
      r
  | exception Not_found -> no_route t pkt

let receive t pkt =
  t.received <- t.received + 1;
  let pa = t.pa in
  pa.Packet.hops.(pkt) <- pa.Packet.hops.(pkt) + 1;
  let r = pa.Packet.route.(pkt) in
  let r = if r >= 0 then r else resolve t pkt in
  let ports = t.ports in
  let port =
    if r < Array.length ports then Array.unsafe_get ports r else unrouted
  in
  if port == unrouted then no_route t pkt
  else
    match port with
    | Forward link -> Link.send link pkt
    | Deliver f -> f pkt

let received t = t.received
