type hop = {
  hop_link : int;
  enqueued_at : float;
  queueing : float;
  transmission : float;
}

type breakdown = {
  bd_flow : int;
  bd_seq : int;
  bd_hops : hop list;
  bd_queueing : float;
  bd_reported : float;
  bd_delivered_at : float;
  bd_complete : bool;
}

(* Per-packet reassembly state while scanning the ring in time order.  A hop
   opens at Enqueue and closes at Deliver; Dequeue/Tx_start fill in its
   queueing and transmission terms in between. *)
type state = {
  mutable hops_rev : hop list;
  mutable complete : bool;  (* first hop seen from a zero-delay Enqueue *)
  mutable in_hop : bool;
  mutable dropped : bool;
  mutable cur_link : int;
  mutable cur_enq : float;
  mutable cur_queue : float;
  mutable cur_tx : float;
  mutable reported : float;
  mutable delivered_at : float;
}

let breakdowns recorder =
  let tbl : (int * int, state) Hashtbl.t = Hashtbl.create 1024 in
  let get ev first_is_start =
    let key = (ev.Recorder.flow, ev.Recorder.seq) in
    match Hashtbl.find_opt tbl key with
    | Some st -> st
    | None ->
        let st =
          {
            hops_rev = [];
            complete = first_is_start;
            in_hop = false;
            dropped = false;
            cur_link = -1;
            cur_enq = 0.;
            cur_queue = 0.;
            cur_tx = 0.;
            reported = 0.;
            delivered_at = 0.;
          }
        in
        Hashtbl.add tbl key st;
        st
  in
  Recorder.iter recorder (fun ev ->
      match ev.Recorder.kind with
      | Recorder.Enqueue ->
          (* value = accumulated queueing delay before this hop: zero marks
             the start of the packet's path. *)
          let st = get ev (ev.Recorder.value = 0.) in
          st.in_hop <- true;
          st.cur_link <- ev.Recorder.link;
          st.cur_enq <- ev.Recorder.time;
          st.cur_queue <- 0.;
          st.cur_tx <- 0.
      | Recorder.Dequeue ->
          let st = get ev false in
          if st.in_hop then st.cur_queue <- ev.Recorder.value
      | Recorder.Tx_start ->
          let st = get ev false in
          if st.in_hop then st.cur_tx <- ev.Recorder.value
      | Recorder.Deliver ->
          let st = get ev false in
          if st.in_hop then begin
            st.hops_rev <-
              {
                hop_link = st.cur_link;
                enqueued_at = st.cur_enq;
                queueing = st.cur_queue;
                transmission = st.cur_tx;
              }
              :: st.hops_rev;
            st.in_hop <- false
          end;
          st.reported <- ev.Recorder.value;
          st.delivered_at <- ev.Recorder.time
      | Recorder.Drop ->
          let st = get ev false in
          st.dropped <- true);
  Hashtbl.fold
    (fun (flow, seq) st acc ->
      (* Delivered iff the last thing that happened was a Deliver: not
         dropped, not opened at a further hop, and at least one hop closed. *)
      if st.dropped || st.in_hop || List.is_empty st.hops_rev then acc
      else
        let hops = List.rev st.hops_rev in
        {
          bd_flow = flow;
          bd_seq = seq;
          bd_hops = hops;
          bd_queueing =
            List.fold_left (fun s h -> s +. h.queueing) 0. hops;
          bd_reported = st.reported;
          bd_delivered_at = st.delivered_at;
          bd_complete = st.complete;
        }
        :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Float.compare a.bd_delivered_at b.bd_delivered_at with
         | 0 -> (
             match Int.compare a.bd_flow b.bd_flow with
             | 0 -> Int.compare a.bd_seq b.bd_seq
             | c -> c)
         | c -> c)

let worst ?(n = 5) recorder =
  breakdowns recorder
  |> List.filter (fun bd -> bd.bd_complete)
  |> List.sort (fun a b ->
         match Float.compare b.bd_reported a.bd_reported with
         | 0 -> (
             match Int.compare a.bd_flow b.bd_flow with
             | 0 -> Int.compare a.bd_seq b.bd_seq
             | c -> c)
         | c -> c)
  |> List.filteri (fun i _ -> i < n)
