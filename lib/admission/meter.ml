(* Maxima are written out as [if a >= b then a else b] in plain loops:
   [Stdlib.max] on floats is a polymorphic compare call on boxed
   arguments, a fold boxes its accumulator at every step, and a call to
   [Ispn_util.Fcmp.fmax] boxes both arguments (DESIGN.md §5).  The
   written-out form is exactly [Fcmp.fmax a b] — [a] unless [a >= b]
   fails, NaN included — so every estimate is bit-identical. *)

type t = {
  n_classes : int;
  epochs : int;
  util : float array;  (* max utilization sample per epoch slot *)
  delay : float array;  (* [slot * n_classes + class]: max delay *)
  mutable cursor : int;
  mutable noted : int;  (* class delays noted, never rotated out *)
  mutable over_target : int;  (* of which above their class target *)
}

let class_targets = Spec.class_targets

let create ?(epochs = 8) () =
  assert (epochs > 0);
  let n_classes = Array.length class_targets in
  {
    n_classes;
    epochs;
    util = Array.make epochs 0.;
    delay = Array.make (epochs * n_classes) 0.;
    cursor = 0;
    noted = 0;
    over_target = 0;
  }

let note_util t u =
  let m = t.util.(t.cursor) in
  t.util.(t.cursor) <- (if m >= u then m else u)

let note_delay t ~cls d =
  if cls < 0 || cls >= t.n_classes then
    invalid_arg "Meter.note_delay: class out of range";
  let i = (t.cursor * t.n_classes) + cls in
  let m = t.delay.(i) in
  t.delay.(i) <- (if m >= d then m else d);
  t.noted <- t.noted + 1;
  if d > class_targets.(cls) then t.over_target <- t.over_target + 1

let noted t = t.noted
let over_target t = t.over_target

let rotate t =
  t.cursor <- (t.cursor + 1) mod t.epochs;
  t.util.(t.cursor) <- 0.;
  Array.fill t.delay (t.cursor * t.n_classes) t.n_classes 0.

(* One pass over the window for every estimate, with no float crossing a
   function boundary. *)
let estimates_into t a =
  if Array.length a < t.n_classes + 1 then
    invalid_arg "Meter.estimates_into: array too short";
  let m = ref 0. in
  for i = 0 to t.epochs - 1 do
    let u = t.util.(i) in
    if not (!m >= u) then m := u
  done;
  a.(0) <- !m;
  for cls = 0 to t.n_classes - 1 do
    let m = ref 0. in
    for slot = 0 to t.epochs - 1 do
      let d = t.delay.((slot * t.n_classes) + cls) in
      if not (!m >= d) then m := d
    done;
    a.(cls + 1) <- !m
  done

let estimates t =
  let a = Array.make (t.n_classes + 1) 0. in
  estimates_into t a;
  a

let util_hat t = (estimates t).(0)

let delay_hat t ~cls =
  if cls < 0 || cls >= t.n_classes then
    invalid_arg "Meter.delay_hat: class out of range";
  (estimates t).(cls + 1)
