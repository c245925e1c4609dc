type t = {
  mutable free : int array;  (* a stack of free slots, [nfree] deep *)
  mutable nfree : int;
  mutable cap : int;
}

let create () = { free = [||]; nfree = 0; cap = 0 }

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* every slot is in use, so the new stack holds only the new slots; filled
   in place, since [Array.init] stores each int through the write barrier *)
let grow p =
  let cap = p.cap in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let free = Array.make ncap 0 in
  for i = 0 to ncap - 1 do
    free.(i) <- ncap - 1 - i
  done;
  p.free <- free;
  p.nfree <- ncap - cap;
  p.cap <- ncap

let alloc p =
  if p.nfree = 0 then grow p;
  p.nfree <- p.nfree - 1;
  p.free.(p.nfree)

let release p slot =
  p.free.(p.nfree) <- slot;
  p.nfree <- p.nfree + 1

let capacity p = p.cap
let live p = p.cap - p.nfree
