type t = {
  miss_cycles : int;
  page_shift : int;
  slot_mask : int;  (* entries - 1 *)
  tags : int array;
  mutable s_lookups : int;
  mutable s_misses : int;
}

type stats = { lookups : int; misses : int }

let create ~entries ~miss_cycles ~page_bytes =
  if not (Params.is_pow2 entries && Params.is_pow2 page_bytes) then
    invalid_arg
      (Printf.sprintf "Tlb.create: entries = %d and page_bytes = %d must be powers of two" entries
         page_bytes);
  {
    miss_cycles;
    page_shift = Params.log2 page_bytes;
    slot_mask = entries - 1;
    tags = Array.make entries (-1);
    s_lookups = 0;
    s_misses = 0;
  }

let lookup t ~addr =
  t.s_lookups <- t.s_lookups + 1;
  let vpn = addr lsr t.page_shift in
  let slot = vpn land t.slot_mask in
  if t.tags.(slot) = vpn then 0
  else begin
    t.s_misses <- t.s_misses + 1;
    t.tags.(slot) <- vpn;
    t.miss_cycles
  end

let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
let stats t = { lookups = t.s_lookups; misses = t.s_misses }
