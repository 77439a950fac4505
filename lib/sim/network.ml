(* ---- route search ------------------------------------------------------ *)

type routes = {
  n : int;
  src : int array; (* link id -> source switch *)
  dst : int array; (* link id -> destination switch *)
  first : int array; (* switch u's row of [out]: first.(u) .. first.(u+1)-1 *)
  out : int array; (* link ids, by source switch, then ascending dst *)
  pred : int array array;
      (* source -> the link into each switch on its BFS tree (-1: none);
         [||] until the source's first route *)
}

let routes ~n_switches ends =
  let n = n_switches and m = Array.length ends in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let first = Array.make (n + 1) 0 in
  Array.iteri
    (fun l (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Network: link endpoint out of range";
      if a = b then invalid_arg "Network: self loop";
      src.(l) <- a;
      dst.(l) <- b;
      first.(a + 1) <- first.(a + 1) + 1)
    ends;
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  (* Insert each link into its source's row, keeping rows in ascending
     destination order. *)
  let out = Array.make m 0 and len = Array.make n 0 in
  for l = 0 to m - 1 do
    let lo = first.(src.(l)) in
    let j = ref (lo + len.(src.(l))) in
    while !j > lo && dst.(out.(!j - 1)) > dst.(l) do
      out.(!j) <- out.(!j - 1);
      decr j
    done;
    if !j > lo && dst.(out.(!j - 1)) = dst.(l) then
      invalid_arg "Network: duplicate link";
    out.(!j) <- l;
    len.(src.(l)) <- len.(src.(l)) + 1
  done;
  { n; src; dst; first; out; pred = Array.make n [||] }

(* Unit-weight Dijkstra = breadth-first search; neighbours are visited in
   ascending switch id, so every tie breaks toward the lower id and routes
   are deterministic. *)
let search r s =
  let p = Array.make r.n (-1) in
  let queue = Array.make r.n s in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = r.first.(u) to r.first.(u + 1) - 1 do
      let v = r.dst.(r.out.(k)) in
      if v <> s && p.(v) < 0 then begin
        p.(v) <- r.out.(k);
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  p

let pred r s =
  let p = r.pred.(s) in
  if Array.length p > 0 then p
  else begin
    let p = search r s in
    r.pred.(s) <- p;
    p
  end

let in_range r i = i >= 0 && i < r.n

let route r ~src ~dst =
  if not (in_range r src && in_range r dst) then None
  else begin
    let p = pred r src in
    if dst <> src && p.(dst) < 0 then None
    else begin
      let acc = ref [] and v = ref dst in
      while !v <> src do
        let l = p.(!v) in
        acc := l :: !acc;
        v := r.src.(l)
      done;
      Some !acc
    end
  end

(* ---- the network ------------------------------------------------------- *)

type t = {
  engine : Engine.t;
  switches : Node.t array;
  links : Link.t array;
  ports : Node.port array; (* [Forward] of each link, shared by its routes *)
  routes : routes;
}

let create ~engine ~n_switches ~links ~rate_bps ?(prop_delay = 0.) ?recorder
    ~qdisc_of () =
  assert (n_switches >= 1);
  let ends = Array.of_list links in
  let routes = routes ~n_switches ends in
  let switches =
    Array.init n_switches (fun i ->
        Node.create ~name:(Printf.sprintf "S-%d" (i + 1)))
  in
  let links =
    Array.mapi
      (fun i (_, dst) ->
        let link =
          Link.create ~engine ~rate_bps ~prop_delay ~id:i ?recorder
            ~qdisc:(qdisc_of i)
            ~name:(Printf.sprintf "L-%d" (i + 1))
            ()
        in
        let next = switches.(dst) in
        Link.set_receiver link (fun pkt -> Node.receive next pkt);
        link)
      ends
  in
  let ports = Array.map (fun l -> Node.Forward l) links in
  { engine; switches; links; ports; routes }

let chain ~engine ~n_switches ~rate_bps ?prop_delay ?recorder ~qdisc_of () =
  create ~engine ~n_switches
    ~links:(List.init (n_switches - 1) (fun i -> (i, i + 1)))
    ~rate_bps ?prop_delay ?recorder ~qdisc_of ()

let engine t = t.engine
let n_switches t = Array.length t.switches
let n_links t = Array.length t.links
let switch t i = t.switches.(i)
let link t i = t.links.(i)
let path t ~ingress ~egress = route t.routes ~src:ingress ~dst:egress

(* Walks the stored predecessor links back from [egress]: no search, and
   nothing allocated but the route cells. *)
let install_flow t ~flow ~ingress ~egress ~sink =
  let r = t.routes in
  if not (in_range r ingress && in_range r egress) then
    invalid_arg "Network.install_flow: bad path";
  let p = pred r ingress in
  if egress <> ingress && p.(egress) < 0 then
    failwith
      (Printf.sprintf "Network.install_flow: switch %d unreachable from %d"
         egress ingress);
  Node.add_route t.switches.(egress) ~flow (Node.Deliver sink);
  let v = ref egress in
  while !v <> ingress do
    let l = p.(!v) in
    v := r.src.(l);
    Node.add_route t.switches.(!v) ~flow t.ports.(l)
  done

let inject t ~at_switch pkt = Node.receive t.switches.(at_switch) pkt

let total_dropped t =
  Array.fold_left (fun acc l -> acc + Link.dropped l) 0 t.links

let utilization t ~link ~elapsed = Link.utilization t.links.(link) ~elapsed

let register_metrics t m =
  Array.iteri
    (fun i l -> Link.register_metrics l m ~prefix:(Printf.sprintf "link.%d" i))
    t.links
