(* Tasks 1..n-1 each get a fresh domain, spawned before task 0 starts on
   the caller, so every task of a call runs at once; [Domain.join]
   publishes each task's result to the caller. *)

let run tasks =
  (* Must catch before anything else raises: the raw backtrace is a
     global of the raising domain. *)
  let one i =
    try Ok (tasks.(i) ()) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let n = Array.length tasks in
  let others =
    Array.init (Int.max 0 (n - 1)) (fun i ->
        Domain.spawn (fun () -> one (i + 1)))
  in
  let first = if n > 0 then [| one 0 |] else [||] in
  Array.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Array.append first (Array.map Domain.join others))
