type event =
  | Link_down of { link : int; at : float; duration : float }
  | Corrupt of { link : int; from_ : float; until : float; per_packet : float }
  | Agent_crash of { switch : int; at : float }

type t = event list

let none = []
