open Ispn_sim
module Audit = Ispn_check.Audit
module Metrics = Ispn_obs.Metrics
module Series = Ispn_obs.Series
module Hist = Ispn_obs.Hist
module Recorder = Ispn_obs.Recorder

type t = {
  audit : Audit.t option;
  metrics : Metrics.t option;
  series : Series.t option;
  hist : Hist.t option;
  recorder : Recorder.t option;
  snapshot : bool;  (* export the registry, not just sample it *)
  live : Packet.mark;  (* this domain's live packets when the job began *)
}

let create ~check ~metrics ~series =
  let m = if metrics || series then Some (Metrics.create ()) else None in
  let sampled make = if series then Option.map make m else None in
  {
    audit = (if check then Some (Audit.create ()) else None);
    metrics = m;
    series = sampled (fun metrics -> Series.create ~metrics ());
    hist = sampled (fun metrics -> Hist.create ~metrics ());
    recorder = None;
    snapshot = metrics;
    live = Packet.mark ();
  }

let of_handles ?metrics ?audit ?series ?hist ?recorder () =
  {
    audit;
    metrics;
    series;
    hist;
    recorder;
    snapshot = Option.is_some metrics;
    live = Packet.mark ();
  }

let audit t = t.audit
let metrics t = t.metrics
let hist t = t.hist

let attach_link t lk =
  let name = Printf.sprintf "link.%d" (Link.id lk) in
  Option.iter (fun a -> Audit.attach_link a lk) t.audit;
  Option.iter (fun m -> Link.register_metrics lk m ~prefix:name) t.metrics;
  (* The same [wait] the link folds into its [.wait] stats, keeping the
     tail shape; [add_tap] composes with the audit's tap. *)
  Option.iter
    (fun h ->
      let ch = Hist.channel h (name ^ ".wait") in
      Link.add_tap lk
        (Tap.make
           ~on_dequeue:(fun ~link:_ ~now:_ ~wait _ ->
             Ispn_util.Loghist.add ch wait)
           ()))
    t.hist;
  Option.iter (Link.attach_recorder lk) t.recorder

let register_pool t ~link pool =
  Option.iter
    (fun m ->
      let reg name f =
        Metrics.register_int m (Printf.sprintf "link.%d.pool.%s" link name) f
      in
      reg "in_use" (fun () -> Qdisc.pool_in_use pool);
      reg "in_use_hwm" (fun () -> Qdisc.pool_hwm pool);
      reg "capacity" (fun () -> Qdisc.pool_capacity pool))
    t.metrics;
  Option.iter (fun a -> Audit.register_pool a ~link pool) t.audit

let register_arena_metrics m =
  let base = (Packet.pool_stats ()).Packet.p_in_use in
  Metrics.register_int m "arena.in_use" (fun () ->
      (Packet.pool_stats ()).Packet.p_in_use - base)

let attach_series t engine = Option.iter (Engine.attach_series engine) t.series

let arm t engine =
  Option.iter
    (fun m ->
      Engine.register_metrics engine m;
      register_arena_metrics m)
    t.metrics;
  attach_series t engine

type export = {
  audit : Audit.summary option;
  snapshot : Metrics.snapshot option;
  timeline : Series.export option;
}

(* The exports read the arena ([arena.in_use], the audit's arena
   checks), so the job's leftover packets are freed only after them. *)
let finish (t : t) =
  let ex =
    {
      audit = Option.map Audit.finalize t.audit;
      snapshot =
        (if t.snapshot then Option.map Metrics.snapshot t.metrics else None);
      timeline = Option.map (fun s -> Series.export ?hist:t.hist s) t.series;
    }
  in
  Packet.free_since t.live;
  ex

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let merge_summaries (a : Audit.summary) (b : Audit.summary) : Audit.summary =
  let sum (x : Audit.inv_summary) (y : Audit.inv_summary) =
    { x with
      inv_checks = x.inv_checks + y.inv_checks;
      inv_violations = x.inv_violations + y.inv_violations }
  in
  {
    events = a.events + b.events;
    checks = a.checks + b.checks;
    violations = a.violations + b.violations;
    invariants = List.map2 sum a.invariants b.invariants;
    samples = a.samples @ b.samples;
  }

let merge_timelines (a : Series.export) (b : Series.export) =
  assert (
    Array.length a.ex_times = Array.length b.ex_times
    && Array.for_all2 (fun (x : float) y -> x = y) a.ex_times b.ex_times);
  {
    a with
    ex_columns = by_name (a.ex_columns @ b.ex_columns);
    ex_hists = by_name (a.ex_hists @ b.ex_hists);
  }

let merge = function
  | [] -> invalid_arg "Instr.merge: no exports"
  | e :: es ->
      let both f x y =
        match (x, y) with Some x, Some y -> Some (f x y) | _ -> None
      in
      List.fold_left
        (fun a b ->
          {
            audit = both merge_summaries a.audit b.audit;
            snapshot = both (fun x y -> by_name (x @ y)) a.snapshot b.snapshot;
            timeline = both merge_timelines a.timeline b.timeline;
          })
        e es

let run_sharded ~check ~metrics ~series ~until spec =
  (* Slot [s] is written only by shard [s]'s domain, read after
     [Shardnet.run] returns. *)
  let n = spec.Shardnet.n_shards in
  let bundles = Array.make n None and exports = Array.make n None in
  let get shard = Option.get bundles.(shard) in
  let res =
    Shardnet.run ~until spec
      ~on_start:(fun ~shard ->
        bundles.(shard) <- Some (create ~check ~metrics ~series))
      ~on_link:(fun ~shard lk -> attach_link (get shard) lk)
      ~on_shard:(fun ~shard engine -> attach_series (get shard) engine)
      ~on_finish:(fun ~shard -> exports.(shard) <- Some (finish (get shard)))
  in
  (res, merge (List.map Option.get (Array.to_list exports)))
