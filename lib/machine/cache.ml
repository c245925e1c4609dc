type level = L1 | L2 | Memory

type stats = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;
  memory_fills : int;
  writebacks : int;
}

(* A level is a direct-mapped array of packed words: the line-aligned
   address of the resident line, with bit 0 set when it is dirty. Line
   sizes are powers of two >= 2, so bit 0 of a line address is free. *)
let dirty = 1

(* an empty slot: negative, so it matches no line address, and not dirty *)
let empty = -2

type t = {
  line_bytes : int;
  line_shift : int;
  l1_sets : int;
  l2_sets : int;
  (* allocated on first use: a node that never touches memory (a serving
     node) carries no cache arrays at all *)
  mutable l1 : int array;
  mutable l2 : int array;
  write_through : bool;
  l1_cycles : int;
  l2_cycles : int;
  memory_cycles : int;
  (* memory-bound write-backs of the last access or flush, in order *)
  mutable wb : int array;
  mutable wb_len : int;
  mutable last : level;
  mutable s_accesses : int;
  mutable s_l1_hits : int;
  mutable s_l2_hits : int;
  mutable s_memory_fills : int;
  mutable s_writebacks : int;
}

let create (p : Params.t) =
  (match Params.validate p with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Cache.create: " ^ String.concat "; " errs));
  {
    line_bytes = p.line_bytes;
    line_shift = Params.log2 p.line_bytes;
    l1_sets = p.l1_bytes / p.line_bytes;
    l2_sets = p.l2_bytes / p.line_bytes;
    l1 = [||];
    l2 = [||];
    write_through = p.cache_policy = Params.Write_through;
    l1_cycles = p.l1_access_cycles;
    l2_cycles = p.l1_access_cycles + p.l2_access_cycles;
    memory_cycles = p.l1_access_cycles + p.l2_access_cycles + p.memory_latency_cycles;
    wb = Array.make 2 0;
    wb_len = 0;
    last = Memory;
    s_accesses = 0;
    s_l1_hits = 0;
    s_l2_hits = 0;
    s_memory_fills = 0;
    s_writebacks = 0;
  }

let line_of t addr = addr land lnot (t.line_bytes - 1)
let slot t sets la = (la lsr t.line_shift) land (sets - 1)

let level1 t =
  if Array.length t.l1 = 0 then t.l1 <- Array.make t.l1_sets empty;
  t.l1

let level2 t =
  if Array.length t.l2 = 0 then t.l2 <- Array.make t.l2_sets empty;
  t.l2

let push_writeback t la =
  if t.wb_len = Array.length t.wb then begin
    let grown = Array.make (2 * t.wb_len) 0 in
    Array.blit t.wb 0 grown 0 t.wb_len;
    t.wb <- grown
  end;
  t.wb.(t.wb_len) <- la;
  t.wb_len <- t.wb_len + 1;
  t.s_writebacks <- t.s_writebacks + 1

(* A dirty L1 victim moves into L2; a different dirty line it displaces
   there goes to memory. *)
let spill t victim =
  let l2 = level2 t in
  let s = slot t t.l2_sets victim in
  let w = l2.(s) in
  if w land dirty <> 0 && w <> victim lor dirty then push_writeback t (w - dirty);
  l2.(s) <- victim lor dirty

let access_line t ~addr ~write =
  let la = line_of t addr in
  t.s_accesses <- t.s_accesses + 1;
  t.wb_len <- 0;
  (* under write-through, a store goes straight to memory as well: it is
     reported like a write-back so the bus charges it and the Message Cache
     snoops it (this is what makes board consistency "trivial") *)
  if write && t.write_through then push_writeback t la;
  let store = if write && not t.write_through then dirty else 0 in
  let l1 = level1 t in
  let s1 = slot t t.l1_sets la in
  let w1 = l1.(s1) in
  if w1 land lnot dirty = la then begin
    t.s_l1_hits <- t.s_l1_hits + 1;
    l1.(s1) <- w1 lor store;
    t.last <- L1;
    t.l1_cycles
  end
  else begin
    (* L1 miss: [la] takes the L1 slot; a dirty L1 victim moves to L2 *)
    let l2 = t.l2 in
    let s2 = slot t t.l2_sets la in
    if Array.length l2 > 0 && l2.(s2) land lnot dirty = la then begin
      t.s_l2_hits <- t.s_l2_hits + 1;
      (* the exclusive swap: the line moves up into L1, carrying its dirty
         state, and vacates its L2 slot before the L1 victim spills — a
         victim congruent to it mod the L2 size lands in that very slot *)
      l1.(s1) <- l2.(s2) lor store;
      l2.(s2) <- empty;
      if w1 land dirty <> 0 then spill t (w1 - dirty);
      t.last <- L2;
      t.l2_cycles
    end
    else begin
      t.s_memory_fills <- t.s_memory_fills + 1;
      l1.(s1) <- la lor store;
      if w1 land dirty <> 0 then spill t (w1 - dirty);
      t.last <- Memory;
      t.memory_cycles
    end
  end

let last_level t = t.last
let writebacks t = t.wb_len

let writeback t i =
  if i < 0 || i >= t.wb_len then invalid_arg "Cache.writeback: index out of range";
  t.wb.(i)

(* The range operations visit every line of the range in both levels. *)
type walk = Flush | Invalidate | Count_dirty

(* [la] in one level under [op]; returns 1 when the line counts *)
let visit t op lv sets la =
  if Array.length lv = 0 then 0
  else
    let s = slot t sets la in
    let w = lv.(s) in
    if w land lnot dirty <> la then 0
    else
      match op with
      | Count_dirty -> w land dirty
      | Invalidate ->
          lv.(s) <- empty;
          1
      | Flush ->
          if w land dirty <> 0 then push_writeback t la;
          lv.(s) <- empty;
          0

let walk t op ~addr ~bytes =
  let n = ref 0 in
  if bytes > 0 then begin
    let last = line_of t (addr + bytes - 1) in
    let la = ref (line_of t addr) in
    while !la <= last do
      let in_l1 = visit t op t.l1 t.l1_sets !la in
      let in_l2 = visit t op t.l2 t.l2_sets !la in
      n := !n + in_l1 + in_l2;
      la := !la + t.line_bytes
    done
  end;
  !n

let flush_range t ~addr ~bytes =
  t.wb_len <- 0;
  ignore (walk t Flush ~addr ~bytes);
  (* walking the range costs roughly one L1 access per line; the caller
     charges the write-backs' bus occupancy *)
  if bytes <= 0 then 0
  else (((line_of t (addr + bytes - 1) - line_of t addr) lsr t.line_shift) + 1) * t.l1_cycles

let dirty_lines_in t ~addr ~bytes = walk t Count_dirty ~addr ~bytes
let invalidate_range t ~addr ~bytes = walk t Invalidate ~addr ~bytes

let stats t =
  {
    accesses = t.s_accesses;
    l1_hits = t.s_l1_hits;
    l2_hits = t.s_l2_hits;
    memory_fills = t.s_memory_fills;
    writebacks = t.s_writebacks;
  }

let reset_stats t =
  t.s_accesses <- 0;
  t.s_l1_hits <- 0;
  t.s_l2_hits <- 0;
  t.s_memory_fills <- 0;
  t.s_writebacks <- 0
