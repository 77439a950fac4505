open Ispn_sim
module Kheap = Ispn_util.Kheap

let create ~engine ~budget_of ~pool () =
  let pa = Packet.arena () in
  (* Per-flow budgets as a flat array (budgets are positive, so 0. marks a
     flow not yet seen). *)
  let budgets = ref (Array.make 64 0.) in
  (* Packets still being held back wait in [holding], keyed by eligibility
     time; eligible packets sit in [ready], keyed by deadline.  One shared
     arrival counter pins the tie-break rank across both heaps, so a
     packet promoted from [holding] keeps its arrival-order rank among
     equal deadlines in [ready]. *)
  let holding = Kheap.create ~capacity:64 () in
  let ready = Kheap.create ~capacity:64 () in
  let next_seq = ref 0 in
  let waker = ref (fun () -> ()) in
  let register flow =
    let d = budget_of flow in
    if d <= 0. then
      invalid_arg (Printf.sprintf "Jitter_edd: flow %d has budget %g" flow d);
    !budgets.(flow) <- d;
    d
  in
  let budget flow =
    let b = !budgets in
    if flow >= Array.length b then budgets := Ispn_util.Dense.fit b flow 0.;
    let d = !budgets.(flow) in
    if d > 0. then d else register flow
  in
  (* Move everything whose holding time has expired into the ready heap.
     A held packet's deadline is recomputed from its (exact) eligibility
     key, [eligible + budget], the same expression used at enqueue. *)
  let promote ~now =
    let continue_ = ref true in
    while !continue_ do
      if Kheap.is_empty holding then continue_ := false
      else begin
        let eligible = Kheap.min_key_exn holding in
        if eligible <= now +. 1e-12 then begin
          let seq = Kheap.min_seq_exn holding in
          let pkt = Kheap.pop_exn holding in
          Kheap.push_pinned ready
            ~key:(eligible +. budget pa.Packet.flow.(pkt))
            ~seq pkt
        end
        else continue_ := false
      end
    done
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      (* The header carries the earliness accumulated at the previous hop;
         the packet is held for exactly that long here. *)
      (* [Ispn_util.Fcmp.fmax 0. offset] here and at dequeue, written out
         so no float is boxed for a call across modules (DESIGN.md §5). *)
      let offset = pa.Packet.offset.(pkt) in
      let hold = if 0. >= offset then 0. else offset in
      let eligible = now +. hold in
      let seq = !next_seq in
      incr next_seq;
      if hold > 0. then begin
        Kheap.push_pinned holding ~key:eligible ~seq pkt;
        ignore (Engine.schedule engine ~at:eligible (fun () -> !waker ()))
      end
      else
        Kheap.push_pinned ready
          ~key:(eligible +. budget pa.Packet.flow.(pkt))
          ~seq pkt;
      true
    end
    else false
  in
  let dequeue ~now =
    promote ~now;
    if Kheap.is_empty ready then None
    else begin
      let deadline = Kheap.min_key_exn ready in
      let pkt = Kheap.pop_exn ready in
      Qdisc.pool_release pool;
      (* Export this hop's earliness for the next hop to cancel. *)
      let early = deadline -. now in
      pa.Packet.offset.(pkt) <- (if 0. >= early then 0. else early);
      Some pkt
    end
  in
  let length () = Kheap.length holding + Kheap.length ready in
  Qdisc.make
    ~attach_waker:(fun w -> waker := w)
    ~enqueue ~dequeue ~length ~name:"Jitter-EDD" ()
