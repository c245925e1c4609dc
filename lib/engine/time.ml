type t = int

let zero = 0
let ps n = n
let ns n = n * 1_000
let us n = n * 1_000_000
let ms n = n * 1_000_000_000
let s n = n * 1_000_000_000_000
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let ( * ) = Stdlib.( * )
(* on ints: [Stdlib.max] is polymorphic and compares through a C call *)
let max (a : t) b = if a >= b then a else b
let min (a : t) b = if a <= b then a else b
let to_ps t = t
let to_ns_float t = float_of_int t /. 1e3
let to_us_float t = float_of_int t /. 1e6
let to_ms_float t = float_of_int t /. 1e9
let to_s_float t = float_of_int t /. 1e12

let cycle_ps ~hz =
  (* Round to nearest picosecond; at 166 MHz this is 6024 ps (0.0066% off),
     which is far below the fidelity of the cost model. *)
  (1_000_000_000_000 + (hz / 2)) / hz

let cycles ~hz n = Stdlib.( * ) n (cycle_ps ~hz)

let pp fmt t =
  if t >= s 1 then Format.fprintf fmt "%.3fs" (to_s_float t)
  else if t >= ms 1 then Format.fprintf fmt "%.3fms" (to_ms_float t)
  else if t >= us 1 then Format.fprintf fmt "%.3fus" (to_us_float t)
  else if t >= ns 1 then Format.fprintf fmt "%.1fns" (to_ns_float t)
  else Format.fprintf fmt "%dps" t
