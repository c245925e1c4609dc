type t = { ports : int; stages : int }

let is_power_of_two n = n >= 2 && n land (n - 1) = 0

let create ~ports =
  if not (is_power_of_two ports) then invalid_arg "Switch.create: ports must be a power of two >= 2";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2) in
  { ports; stages = log2 ports }

let ports t = t.ports
let stages t = t.stages

(* perfect shuffle then exchange on destination bit (k-1-stage) *)
let next_wire t ~stage ~wire ~dst =
  let k = t.stages in
  let shuffled = ((wire lsl 1) lor (wire lsr (k - 1))) land (t.ports - 1) in
  shuffled land lnot 1 lor ((dst lsr (k - 1 - stage)) land 1)

let route t ~src ~dst =
  if src < 0 || src >= t.ports then invalid_arg "Switch.route: src out of range";
  if dst < 0 || dst >= t.ports then invalid_arg "Switch.route: dst out of range";
  let w = ref src in
  Array.init t.stages (fun stage ->
      w := next_wire t ~stage ~wire:!w ~dst;
      !w)

let conflict t (s1, d1) (s2, d2) =
  let r1 = route t ~src:s1 ~dst:d1 and r2 = route t ~src:s2 ~dst:d2 in
  let n = Array.length r1 in
  let rec go i = if i >= n then false else if r1.(i) = r2.(i) then true else go (i + 1) in
  go 0

let conflicts_in_permutation t perm =
  let n = Array.length perm in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if conflict t (i, perm.(i)) (j, perm.(j)) then incr count
    done
  done;
  !count
