type t = {
  start : unit -> unit;
  stop : unit -> unit;
  generated : unit -> int;
}
