(* SplitMix64. The state lives in an 8-byte buffer read and written through
   the unboxed int64 primitives, so a draw allocates no boxed int64: a
   mutable int64 field would box every new state. The arithmetic stays in
   one function body, where the native compiler keeps it unboxed. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

(* the next output's top [64 - shift] bits, as an int ([shift] >= 2) *)
let[@inline] bits t ~shift =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  Int64.to_int (Int64.shift_right_logical (mix s) shift)

let int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (mix (int64 t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits: OCaml's native int holds 63 including sign, so shifting by
     only one would wrap large values negative *)
  bits t ~shift:2 mod bound

let float t = float_of_int (bits t ~shift:11) *. (1.0 /. 9007199254740992.0)

(* the output's lowest bit, which the shifted draws drop *)
let bool t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  Int64.to_int (mix s) land 1 = 1

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
