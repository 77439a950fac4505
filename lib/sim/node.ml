type port = Forward of Link.t | Deliver of (Packet.t -> unit)

(* Routes are keyed by flow id.  A monomorphic int table (identity hash,
   [Int.equal]) with [find] keeps the per-hop lookup free of the
   polymorphic hash and of [find_opt]'s [Some]; nothing iterates the
   table, so the hash choice never shows in any output.  Sparse ids stay
   cheap — signaling's control flows start at 900 000 — where a dense
   per-node array would grow to the largest id. *)
module Routes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  node_name : string;
  pa : Packet.arena;  (* this domain's packet arena, bound at create *)
  routes : port Routes.t;
  mutable received : int;
}

let create ~name =
  {
    node_name = name;
    pa = Packet.arena ();
    routes = Routes.create 32;
    received = 0;
  }

let add_route t ~flow port = Routes.replace t.routes flow port

let receive t pkt =
  t.received <- t.received + 1;
  let pa = t.pa in
  pa.Packet.hops.(pkt) <- pa.Packet.hops.(pkt) + 1;
  let flow = pa.Packet.flow.(pkt) in
  match Routes.find t.routes flow with
  | Forward link -> Link.send link pkt
  | Deliver f -> f pkt
  | exception Not_found ->
      failwith
        (Printf.sprintf "Node %s: no route for flow %d" t.node_name flow)

let received t = t.received
