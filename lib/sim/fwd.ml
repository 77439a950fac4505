(* An entry is a position in [links] when >= 0, [unrouted], or sink [k]
   stored as [-2 - k].  A switch's row grows through [Dense.fit] to the
   highest slot routed through it, so the table is sized by the flows
   installed, not by the id range (control flows start at 900 000).  A
   sink belongs to the one entry that holds it: overwriting the entry
   frees its number for the next sink.  Installing allocates nothing once
   the arrays have grown. *)

module Index = Ispn_util.Inttbl

let unrouted = -1
let no_sink (_ : Packet.t) = ()

type t = {
  pa : Packet.arena;  (* this domain's packet arena, bound at create *)
  names : string array;
  owned : bool array;
  ends : (int * int) array;  (* link id -> (source, destination) *)
  pos : int array;  (* link id -> position in [links]; -1 if not here *)
  links : Link.t array;
  index : int Index.t;  (* flow id -> slot *)
  rows : int array array;  (* switch -> entry by slot *)
  mutable sinks : (Packet.t -> unit) array;
  sink_ids : Ispn_util.Idpool.t;  (* the sink numbers entries hold *)
}

let set t sw s e =
  let r = Ispn_util.Dense.fit t.rows.(sw) s unrouted in
  t.rows.(sw) <- r;
  let old = r.(s) in
  if old < unrouted then begin
    t.sinks.(-2 - old) <- no_sink;
    Ispn_util.Idpool.release t.sink_ids ~id:(-2 - old)
  end;
  r.(s) <- e

let add_sink t sink =
  let k = Ispn_util.Idpool.take t.sink_ids in
  t.sinks <- Ispn_util.Dense.fit t.sinks k no_sink;
  t.sinks.(k) <- sink;
  -2 - k

let rec set_path t s = function
  | [] -> ()
  | l :: path ->
      let sw = fst t.ends.(l) in
      if t.owned.(sw) then set t sw s t.pos.(l);
      set_path t s path

let install t ~flow ~path ~egress ~sink =
  let s =
    match Index.find t.index flow with
    | s -> s
    | exception Not_found ->
        let s = Index.length t.index in
        Index.replace t.index flow s;
        s
  in
  set_path t s path;
  if t.owned.(egress) then set t egress s (add_sink t sink)

let no_route t sw pkt =
  failwith
    (Printf.sprintf "Switch %s: no route for flow %d" t.names.(sw)
       t.pa.Packet.flow.(pkt))

let resolve t sw pkt =
  let pa = t.pa in
  match Index.find t.index pa.Packet.flow.(pkt) with
  | s ->
      pa.Packet.route.(pkt) <- s;
      s
  | exception Not_found -> no_route t sw pkt

let receive t sw pkt =
  let pa = t.pa in
  pa.Packet.hops.(pkt) <- pa.Packet.hops.(pkt) + 1;
  let s = pa.Packet.route.(pkt) in
  let s = if s >= 0 then s else resolve t sw pkt in
  let r = t.rows.(sw) in
  let e = if s < Array.length r then Array.unsafe_get r s else unrouted in
  if e >= 0 then Link.send (Array.unsafe_get t.links e) pkt
  else if e < unrouted then t.sinks.(-2 - e) pkt
  else no_route t sw pkt

let create ~names ~owns ~ends links =
  let n = Array.length names in
  let pos = Array.make (Array.length ends) (-1) in
  Array.iteri (fun i lk -> pos.(Link.id lk) <- i) links;
  let t =
    {
      pa = Packet.arena ();
      names;
      owned = Array.init n owns;
      ends;
      pos;
      links;
      index = Index.create ~dummy:(-1) ();
      rows = Array.make n [||];
      sinks = [||];
      sink_ids = Ispn_util.Idpool.create ();
    }
  in
  Array.iter
    (fun lk ->
      let dst = snd ends.(Link.id lk) in
      if t.owned.(dst) then Link.set_receiver lk (fun p -> receive t dst p))
    links;
  t
