(* The one copy of the flag plumbing: both executables build their options
   here, so a flag parses, defaults and fails identically in either. *)

open Cmdliner
module Section = Csz.Section

type params = {
  ctx : Section.ctx;
  metrics : string option;
  series : string option;
}

let defaults = Result.get_ok (Section.ctx ())

let duration =
  let doc = "Simulated duration in seconds (the paper uses 600)." in
  Arg.(
    value
    & opt float defaults.duration
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc)

let seed =
  let doc = "PRNG seed; equal seeds reproduce runs bit-for-bit." in
  Arg.(value & opt int64 defaults.seed & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let avg_rate =
  let doc = "Per-flow average packet rate A (packets/second)." in
  Arg.(
    value
    & opt float defaults.avg_rate
    & info [ "a"; "avg-rate" ] ~docv:"PPS" ~doc)

let jobs =
  let doc =
    "Domains to fan independent simulation runs over (Ispn_exec.Pool). \
     Results are bit-identical for any value; defaults to the host's \
     recommended domain count."
  in
  Arg.(value & opt int defaults.jobs & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards =
  let doc =
    "Domains to shard the one simulation over (conservative lock-step \
     windows, Ispn_sim.Shardnet).  The result table is byte-identical for \
     every width; only wall time and the stderr diagnostics change."
  in
  Arg.(value & opt int defaults.shards & info [ "shards" ] ~docv:"N" ~doc)

let verbose =
  let doc = "Also print per-flow statistics." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let fast =
  let doc =
    "Simulate 60 s, overriding the default and any --duration (CI smoke)."
  in
  Arg.(value & flag & info [ "fast" ] ~doc)

let debug =
  let doc =
    "Log admission decisions, flow establishment and buffer drops to stderr."
  in
  Arg.(value & flag & info [ "debug" ] ~doc)

let check =
  let doc =
    "Attach the $(b,ispn_check) conformance auditor to every link (packet \
     conservation, pool accounting, work-conservation, delay monotonicity, \
     token-bucket conformance, PG bounds) and print deterministic [check] \
     footer lines.  Exits 1 if any invariant is violated.  Stdout is \
     byte-identical to a run without the flag, minus the footers, and \
     -j-independent with it."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let metrics =
  let doc =
    "Print deterministic [obs] footer lines (engine counters, per-link \
     drops/pool/wait) and write the full metrics snapshots to $(docv) — \
     CSV if it ends in .csv, JSON otherwise.  Snapshots are merged in \
     canonical job order, so the file is byte-identical for every -j."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let series =
  let doc =
    "Sample every instrument once per simulated second and write the \
     labeled timelines, plus per-channel delay-histogram percentiles, to \
     $(docv) — CSV if it ends in .csv, JSON otherwise.  Sampling is keyed \
     by sim time and exports merge in canonical job order, so the file is \
     byte-identical for every -j; default stdout is unchanged."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

let params ?(trace_cap = Term.const None) flags =
  (* An undeclared flag is no option at all, just the value it defaults to. *)
  let take f default term =
    if List.exists (fun (g : Section.flag) -> g = f) flags then term
    else Term.const default
  in
  let some f term = take f None Term.(const Option.some $ term) in
  let make duration seed avg_rate jobs shards trace_cap verbose fast debug
      check metrics series =
    if debug then Ispn_util.Log.setup ~level:Logs.Debug ();
    let duration = if fast then Some 60. else duration in
    Section.ctx ?duration ?seed ?avg_rate ?jobs ?shards ?trace_cap ~verbose
      ~check ~metrics:(Option.is_some metrics)
      ~series:(Option.is_some series) ()
    |> Result.map (fun ctx -> { ctx; metrics; series })
  in
  Term.term_result' ~usage:false
    Term.(
      const make
      $ some Section.Duration duration $ some Seed seed
      $ some Avg_rate avg_rate $ some Jobs jobs $ some Shards shards
      $ trace_cap $ take Verbose false verbose $ take Fast false fast
      $ take Debug false debug $ take Check false check
      $ take Metrics None metrics $ take Series None series)

let guard f =
  match f () with
  | () -> `Ok ()
  | exception Invalid_argument msg -> `Error (false, msg)

let section_cmd (s : Section.t) =
  let run p =
    guard (fun () ->
        let o = s.run p.ctx in
        print_string (Section.render s o);
        Section.finish ?metrics:p.metrics ?series:p.series o.exports)
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc) Term.(ret (const run $ params s.flags))

let eval cmd =
  let code = Cmd.eval ~term_err:2 cmd in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
