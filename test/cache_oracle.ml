(* The record-and-list cache model the packed Cache replaced, kept as the
   oracle of the model test in test_machine.ml: same geometry, same
   policies, one record and one list per access. *)

module Params = Cni_machine.Params

type level = L1 | L2 | Memory

type access_result = {
  level : level;
  cycles : int;
  writeback_lines : int list;
  fill_from_memory : bool;
}

type level_state = {
  sets : int;
  tags : int array; (* -1 = invalid; otherwise the line-aligned address *)
  dirty : bool array;
}

type stats = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;
  memory_fills : int;
  writebacks : int;
}

type t = {
  p : Params.t;
  line : int;
  l1 : level_state;
  l2 : level_state;
  mutable s_accesses : int;
  mutable s_l1_hits : int;
  mutable s_l2_hits : int;
  mutable s_memory_fills : int;
  mutable s_writebacks : int;
}

let make_level ~bytes ~line =
  let sets = bytes / line in
  { sets; tags = Array.make sets (-1); dirty = Array.make sets false }

let create (p : Params.t) =
  let line = p.line_bytes in
  {
    p;
    line;
    l1 = make_level ~bytes:p.l1_bytes ~line;
    l2 = make_level ~bytes:p.l2_bytes ~line;
    s_accesses = 0;
    s_l1_hits = 0;
    s_l2_hits = 0;
    s_memory_fills = 0;
    s_writebacks = 0;
  }

let line_addr t addr = addr - (addr mod t.line)
let set_of lv t la = la / t.line mod lv.sets

(* Install [la] in [lv]; if a different dirty line is displaced, return it. *)
let install lv t la ~dirty =
  let s = set_of lv t la in
  let victim =
    if lv.tags.(s) >= 0 && lv.tags.(s) <> la && lv.dirty.(s) then Some lv.tags.(s)
    else None
  in
  lv.tags.(s) <- la;
  lv.dirty.(s) <- dirty;
  victim

let present lv t la = lv.tags.(set_of lv t la) = la

let write_through t = t.p.Params.cache_policy = Params.Write_through

let access_addr t la ~write =
  t.s_accesses <- t.s_accesses + 1;
  let p = t.p in
  (* under write-through, a store goes straight to memory as well: it is
     reported like a write-back so the bus charges it and the Message Cache
     snoops it (this is what makes board consistency "trivial") *)
  let through = if write && write_through t then [ la ] else [] in
  if write && write_through t then t.s_writebacks <- t.s_writebacks + 1;
  if present t.l1 t la then begin
    t.s_l1_hits <- t.s_l1_hits + 1;
    if write && not (write_through t) then t.l1.dirty.(set_of t.l1 t la) <- true;
    { level = L1; cycles = p.l1_access_cycles; writeback_lines = through; fill_from_memory = false }
  end
  else begin
    (* L1 miss: we will install [la] in L1; a dirty L1 victim moves to L2. *)
    let writebacks = ref [] in
    let spill_to_l2 victim_la =
      match install t.l2 t victim_la ~dirty:true with
      | Some l2_victim ->
          t.s_writebacks <- t.s_writebacks + 1;
          writebacks := l2_victim :: !writebacks
      | None -> ()
    in
    if present t.l2 t la then begin
      t.s_l2_hits <- t.s_l2_hits + 1;
      let l2_dirty = t.l2.dirty.(set_of t.l2 t la) in
      (* the L2 copy is superseded by the L1 copy: vacate its slot before
         the L1 victim spills into L2, where it may map to that same slot *)
      t.l2.tags.(set_of t.l2 t la) <- -1;
      t.l2.dirty.(set_of t.l2 t la) <- false;
      (* move the line up into L1, carrying its dirty state *)
      (match
         install t.l1 t la ~dirty:(l2_dirty || (write && not (write_through t)))
       with
      | Some l1_victim -> spill_to_l2 l1_victim
      | None -> ());
      {
        level = L2;
        cycles = t.p.l1_access_cycles + t.p.l2_access_cycles;
        writeback_lines = through @ !writebacks;
        fill_from_memory = false;
      }
    end
    else begin
      t.s_memory_fills <- t.s_memory_fills + 1;
      (match install t.l1 t la ~dirty:(write && not (write_through t)) with
      | Some l1_victim -> spill_to_l2 l1_victim
      | None -> ());
      {
        level = Memory;
        cycles = t.p.l1_access_cycles + t.p.l2_access_cycles + t.p.memory_latency_cycles;
        writeback_lines = through @ !writebacks;
        fill_from_memory = true;
      }
    end
  end

let access t ~addr ~write = access_addr t (line_addr t addr) ~write
let access_line t ~addr ~write = access_addr t (line_addr t addr) ~write

let iter_lines t ~addr ~bytes f =
  if bytes > 0 then begin
    let first = line_addr t addr in
    let last = line_addr t (addr + bytes - 1) in
    let la = ref first in
    while !la <= last do
      f !la;
      la := !la + t.line
    done
  end

let flush_range t ~addr ~bytes =
  let writebacks = ref [] in
  let lines_walked = ref 0 in
  let drop lv la =
    let s = set_of lv t la in
    if lv.tags.(s) = la then begin
      if lv.dirty.(s) then begin
        t.s_writebacks <- t.s_writebacks + 1;
        writebacks := la :: !writebacks
      end;
      lv.tags.(s) <- -1;
      lv.dirty.(s) <- false
    end
  in
  iter_lines t ~addr ~bytes (fun la ->
      incr lines_walked;
      drop t.l1 la;
      drop t.l2 la);
  (* Walking the range costs roughly one L1 access per line; write-back bus
     occupancy is charged by the caller from the returned line list. *)
  (List.rev !writebacks, !lines_walked * t.p.l1_access_cycles)

let dirty_lines_in t ~addr ~bytes =
  let n = ref 0 in
  let check lv la =
    let s = set_of lv t la in
    if lv.tags.(s) = la && lv.dirty.(s) then incr n
  in
  iter_lines t ~addr ~bytes (fun la ->
      check t.l1 la;
      check t.l2 la);
  !n

let invalidate_range t ~addr ~bytes =
  let dropped = ref 0 in
  let drop lv la =
    let s = set_of lv t la in
    if lv.tags.(s) = la then begin
      lv.tags.(s) <- -1;
      lv.dirty.(s) <- false;
      incr dropped
    end
  in
  iter_lines t ~addr ~bytes (fun la ->
      drop t.l1 la;
      drop t.l2 la);
  !dropped

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
