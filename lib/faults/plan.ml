type event =
  | Link_down of { link : int; at : float; duration : float }
  | Corrupt of { link : int; from_ : float; until : float; per_packet : float }
  | Agent_crash of { switch : int; at : float }

type t = event list

let none = []

let time_of = function
  | Link_down { at; _ } -> at
  | Corrupt { from_; _ } -> from_
  | Agent_crash { at; _ } -> at

let random ~seed ~n_links ~duration ?mtbf ?(mttr = 2.) ?(corrupt_windows = 0)
    ?(corrupt_span = 5.) ?(per_packet = 0.1) ?(crashes = 0) () =
  if n_links <= 0 then invalid_arg "Plan.random: n_links must be positive";
  if duration <= 0. then invalid_arg "Plan.random: duration must be positive";
  let mtbf = match mtbf with Some m -> m | None -> 2. *. duration in
  let prng = Ispn_util.Prng.create ~seed in
  let events = ref [] in
  (* Per-link alternating renewal process, each link on its own split
     stream so adding links does not perturb the others' fault times. *)
  for link = 0 to n_links - 1 do
    let g = Ispn_util.Prng.split prng in
    let t = ref (Ispn_util.Dist.exponential g ~mean:mtbf) in
    while !t < duration do
      let repair = Ispn_util.Dist.exponential g ~mean:mttr in
      events := Link_down { link; at = !t; duration = repair } :: !events;
      t := !t +. repair +. Ispn_util.Dist.exponential g ~mean:mtbf
    done
  done;
  let g = Ispn_util.Prng.split prng in
  for _ = 1 to corrupt_windows do
    let link = Ispn_util.Prng.int g ~bound:n_links in
    let from_ = Ispn_util.Prng.float g *. Float.max 0. (duration -. corrupt_span) in
    events :=
      Corrupt { link; from_; until = from_ +. corrupt_span; per_packet }
      :: !events
  done;
  let g = Ispn_util.Prng.split prng in
  for _ = 1 to crashes do
    let switch = Ispn_util.Prng.int g ~bound:n_links in
    let at = Ispn_util.Prng.float g *. duration in
    events := Agent_crash { switch; at } :: !events
  done;
  (* Stable sort by start time: simultaneous events keep generation order. *)
  List.stable_sort (fun a b -> Float.compare (time_of a) (time_of b))
    (List.rev !events)
