(* SplitMix64 written plainly, with its state in a mutable int64 field:
   the oracle [Cni_engine.Rng]'s unboxed stream is checked against. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let s = int64 t in
  { state = mix s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits: OCaml's native int holds 63 including sign, so shifting by
     only one would wrap large values negative *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t =
  let v = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
