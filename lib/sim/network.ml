(* ---- route search ------------------------------------------------------ *)

type routes = {
  n : int;
  src : int array; (* link id -> source switch *)
  dst : int array; (* link id -> destination switch *)
  first : int array; (* switch u's row of [out]: first.(u) .. first.(u+1)-1 *)
  out : int array; (* link ids, by source switch, then ascending dst *)
  paths : int list option array array;
      (* source -> its route to each switch; [||] until its first route *)
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
  { n; src; dst; first; out; paths = Array.make n [||] }

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

let in_range r i = i >= 0 && i < r.n

(* Walks each switch's predecessor links back to [s] once, so a later
   route is a lookup and allocates nothing. *)
let paths r s =
  let row = r.paths.(s) in
  if Array.length row > 0 then row
  else begin
    let p = search r s in
    let walk dst =
      if dst <> s && p.(dst) < 0 then None
      else begin
        let acc = ref [] and v = ref dst in
        while !v <> s do
          let l = p.(!v) in
          acc := l :: !acc;
          v := r.src.(l)
        done;
        Some !acc
      end
    in
    let row = Array.init r.n walk in
    r.paths.(s) <- row;
    row
  end

let route r ~src ~dst =
  if in_range r src && in_range r dst then (paths r src).(dst) else None

(* ---- the network ------------------------------------------------------- *)

type t = {
  engine : Engine.t;
  links : Link.t array;
  fwd : Fwd.t;
  routes : routes;
}

let create ~engine ~n_switches ~links ~rate_bps ?(prop_delay = 0.) ~qdisc_of
    () =
  assert (n_switches >= 1);
  let ends = Array.of_list links in
  let routes = routes ~n_switches ends in
  let links =
    Array.mapi
      (fun i _ ->
        Link.create ~engine ~rate_bps ~prop_delay ~id:i ~qdisc:(qdisc_of i)
          ~name:(Printf.sprintf "L-%d" (i + 1))
          ())
      ends
  in
  let fwd =
    Fwd.create
      ~names:(Array.init n_switches (fun i -> Printf.sprintf "S-%d" (i + 1)))
      ~owns:(fun _ -> true) ~ends links
  in
  { engine; links; fwd; routes }

let chain ~engine ~n_switches ~rate_bps ?prop_delay ~qdisc_of () =
  create ~engine ~n_switches
    ~links:(List.init (n_switches - 1) (fun i -> (i, i + 1)))
    ~rate_bps ?prop_delay ~qdisc_of ()

let engine t = t.engine
let n_switches t = t.routes.n
let n_links t = Array.length t.links
let link t i = t.links.(i)
let path t ~ingress ~egress = route t.routes ~src:ingress ~dst:egress

let install_flow t ~flow ~ingress ~egress ~sink =
  let r = t.routes in
  if not (in_range r ingress && in_range r egress) then
    invalid_arg "Network.install_flow: bad path";
  match route r ~src:ingress ~dst:egress with
  | Some path -> Fwd.install t.fwd ~flow ~path ~egress ~sink
  | None ->
      failwith
        (Printf.sprintf "Network.install_flow: switch %d unreachable from %d"
           egress ingress)

let inject t ~at_switch pkt = Fwd.receive t.fwd at_switch pkt

let total_dropped t =
  Array.fold_left (fun acc l -> acc + Link.dropped l) 0 t.links

let utilization t ~link ~elapsed = Link.utilization t.links.(link) ~elapsed

let register_metrics t m =
  Array.iteri
    (fun i l -> Link.register_metrics l m ~prefix:(Printf.sprintf "link.%d" i))
    t.links
