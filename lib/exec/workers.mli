(** Fanning tasks out over domains: the only place the library spawns
    one.

    {!Pool} runs its [-j] slices through {!run}, and
    [Ispn_sim.Shardnet.run] its shards.  Task 0 of a call runs on the
    calling domain and every other task on a domain spawned for it and
    joined before {!run} returns, so a one-task call ([-j 1], one shard)
    spawns nothing.

    {b No deadlock when nested.}  A task may itself call {!run}: a [-j]
    job that runs a two-shard simulation does.  Every task of every call
    starts at once, on its caller or on its own new domain, and no task
    ever waits for another call's domain to free up.  So the tasks of one
    call run side by side even when they block on each other, as the
    shards of one simulation do at their window barrier.

    {b State the caller keeps.}  Task 0 runs on the calling domain, so it
    sees that domain's domain-local state from earlier work: above all
    its [Ispn_sim.Packet] arena, with the counters of every earlier run
    on it.  Anything that reads the arena must read it as a delta from a
    baseline taken when its own run starts, as the [packet-arena] audit
    and the [arena.in_use] gauge do. *)

val run : (unit -> 'a) array -> 'a array
(** [run tasks] runs every task, task 0 on the calling domain and each
    other on a new domain, and returns their results in task order once
    all have finished.  If tasks raise, the exception of the first raising
    task in task order (not in wall-clock order) is re-raised with its
    backtrace, after every task has finished. *)
