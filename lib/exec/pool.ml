let default_jobs () = Domain.recommended_domain_count ()

type error = { job : int; exn : exn; backtrace : string }

let capture job exn =
  (* Must run before anything else raises: the raw backtrace is a global. *)
  let backtrace =
    Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
  in
  { job; exn; backtrace }

(* Slice [d] of [j] is the strided set of jobs [d, d+j, ...]: a fixed
   partition decided before any slice starts, so which slice runs which
   job never depends on timing.  Each slice buffers [(index, result)]
   pairs locally; [Workers.run] hands the buffers back in slice order,
   slice 0 from the calling domain. *)
let slice f jobs ~d ~j () =
  let n = Array.length jobs in
  let buf = ref [] in
  let i = ref d in
  while !i < n do
    let r = try Ok (f jobs.(!i)) with e -> Error (capture !i e) in
    buf := (!i, r) :: !buf;
    i := !i + j
  done;
  !buf

let try_map ?j f xs =
  let jobs = Array.of_list xs in
  let n = Array.length jobs in
  let j = match j with None -> default_jobs () | Some j -> j in
  let j = Int.max 1 (Int.min j n) in
  let out = Array.make n None in
  Array.iter
    (List.iter (fun (i, r) -> out.(i) <- Some r))
    (Workers.run (Array.init j (fun d -> slice f jobs ~d ~j)));
  Array.to_list out |> List.map Option.get

let map ?j f xs =
  try_map ?j f xs
  |> List.map (function Ok v -> v | Error e -> raise e.exn)
