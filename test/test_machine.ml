(* Tests for the workstation node model: parameters, the two-level
   direct-mapped write-back cache, the TLB, and the snooping memory bus. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Params = Cni_machine.Params
module Cache = Cni_machine.Cache
module Tlb = Cni_machine.Tlb
module Bus = Cni_machine.Bus
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let p = Params.default

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_derived_costs () =
  (* one 8-byte word: 4 acquisition + 2 transfer = 6 bus cycles of 40 ns *)
  checki "bus transfer 1 word" (6 * 40_000) (Time.to_ps (Params.bus_transfer p ~bytes:8));
  (* a 4 KB page: 4 + 512*2 = 1028 bus cycles ~ 41.1 us *)
  checki "bus transfer 4KB" (1028 * 40_000) (Time.to_ps (Params.bus_transfer p ~bytes:4096));
  (* partial words round up *)
  checki "partial word rounds up"
    (Time.to_ps (Params.bus_transfer p ~bytes:8))
    (Time.to_ps (Params.bus_transfer p ~bytes:1))

let test_wire_time () =
  (* 622 Mb/s: 53 bytes = 424 bits ~ 681.7 ns *)
  let t = Time.to_ns_float (Params.wire_time p ~bytes:53) in
  checkb "53B cell time ~ 0.68us" true (t > 675.0 && t < 690.0)

let test_validate () =
  checkb "Table 1 geometry is valid" true (Params.validate p = Ok ());
  (match Params.validate { p with Params.page_bytes = 3000 } with
  | Error [ e ] -> checkb "names the page size" true (String.length e > 0)
  | _ -> Alcotest.fail "page_bytes = 3000 accepted");
  (* every violated rule is reported, not just the first *)
  (match
     Params.validate
       { p with Params.page_bytes = 0; l1_bytes = 2 * p.Params.l2_bytes; tlb_entries = 48 }
   with
  | Error errs -> checki "zero page, L1 > L2, 48 TLB entries: four errors" 4 (List.length errs)
  | Ok () -> Alcotest.fail "bad geometry accepted");
  (match Cluster.create ~params:{ p with Params.page_bytes = 0 } ~nic_kind:`Standard ~nodes:1 () with
  | exception Invalid_argument msg ->
      checkb "structured error" true (String.starts_with ~prefix:"Cluster.create" msg)
  | _ -> Alcotest.fail "Cluster.create accepted page_bytes = 0");
  match Cache.create { p with Params.line_bytes = 24 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Cache.create accepted 24-byte lines"

let test_cells_for () =
  checki "empty payload still one cell" 1 (Params.cells_for p ~bytes:0);
  checki "exactly one cell" 1 (Params.cells_for p ~bytes:48);
  checki "one byte over" 2 (Params.cells_for p ~bytes:49);
  checki "4KB+trailer" 86 (Params.cells_for p ~bytes:(4096 + 8));
  let unrestricted = { p with Params.cell_payload_bytes = 1 lsl 26 } in
  checki "unrestricted: single cell" 1 (Params.cells_for unrestricted ~bytes:1_000_000)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

(* the write-backs the last cache operation left in the buffer *)
let wb_list c = List.init (Cache.writebacks c) (Cache.writeback c)

type access = { level : Cache.level; cycles : int; writeback_lines : int list }

let access c ~addr ~write =
  let cycles = Cache.access_line c ~addr ~write in
  { level = Cache.last_level c; cycles; writeback_lines = wb_list c }

let flush c ~addr ~bytes =
  let cycles = Cache.flush_range c ~addr ~bytes in
  (wb_list c, cycles)

let with_policy params ~write_through =
  { params with Params.cache_policy = (if write_through then Params.Write_through else Params.Write_back) }

let test_cache_hit_miss () =
  let c = Cache.create p in
  let r1 = access c ~addr:0x1000 ~write:false in
  checkb "cold miss from memory" true (r1.level = Cache.Memory);
  checki "miss cycles" (1 + 10 + 20) r1.cycles;
  let r2 = access c ~addr:0x1000 ~write:false in
  checkb "then L1 hit" true (r2.level = Cache.L1);
  checki "hit cycles" 1 r2.cycles;
  (* a different word in the same 32-byte line also hits *)
  let r3 = access c ~addr:0x1008 ~write:true in
  checkb "same line hits" true (r3.level = Cache.L1)

let test_cache_l1_conflict_spills_to_l2 () =
  let c = Cache.create p in
  (* two addresses mapping to the same L1 set (L1 = 32 KB direct-mapped) *)
  let a = 0x0 and b = p.Params.l1_bytes in
  ignore (access c ~addr:a ~write:false);
  ignore (access c ~addr:b ~write:false);
  (* a was displaced from L1; a clean victim is simply dropped, so the next
     access refills from... L2 only holds dirty spills. Make it dirty. *)
  ignore (access c ~addr:a ~write:true);
  ignore (access c ~addr:b ~write:false);
  let r = access c ~addr:a ~write:false in
  checkb "dirty victim found in L2" true (r.level = Cache.L2);
  checki "L2 hit cycles" 11 r.cycles

(* on an L2 hit the promoted line vacates its L2 slot before the L1 victim
   spills, so a victim congruent to it mod the L2 size (here A + l2_bytes,
   as a page line and its twin at +2^50 are) is kept, not dropped *)
let test_cache_promotion_keeps_congruent_victim () =
  let c = Cache.create p in
  let a = 0x40 in
  let b = a + p.Params.l2_bytes in
  ignore (access c ~addr:a ~write:true);
  (* B takes A's L1 set; dirty A spills into L2 *)
  ignore (access c ~addr:b ~write:true);
  let r = access c ~addr:a ~write:false in
  checkb "A promoted from L2" true (r.level = Cache.L2);
  check Alcotest.(list int) "A moves up and B down: nothing reaches memory" [] r.writeback_lines;
  checki "A still dirty (in L1)" 1 (Cache.dirty_lines_in c ~addr:a ~bytes:32);
  checki "B still dirty (in L2)" 1 (Cache.dirty_lines_in c ~addr:b ~bytes:32);
  check Alcotest.(list int) "flushing B writes it back" [ b ] (fst (flush c ~addr:b ~bytes:32));
  check Alcotest.(list int) "flushing A writes it back" [ a ] (fst (flush c ~addr:a ~bytes:32))

(* property: no dirty line is ever dropped. Every line stored to since its
   last write-back is written back by a flush of the whole address space
   (a 4 KB space over a 256 B L1 and a 1 KB L2, so sets keep colliding in
   both levels) *)
let cache_no_lost_dirty_line =
  let small = { p with Params.l1_bytes = 256; l2_bytes = 1024 } in
  let space = 4096 in
  QCheck.Test.make ~name:"no dirty line is lost" ~count:300
    QCheck.(pair bool (list (pair (int_bound (space - 1)) bool)))
    (fun (write_through, ops) ->
      let c = Cache.create (with_policy small ~write_through) in
      let owed = Hashtbl.create 16 in
      let paid () = List.iter (Hashtbl.remove owed) (wb_list c) in
      List.iter
        (fun (addr, write) ->
          ignore (Cache.access_line c ~addr ~write);
          if write then Hashtbl.replace owed (addr land lnot (small.Params.line_bytes - 1)) ();
          paid ())
        ops;
      ignore (Cache.flush_range c ~addr:0 ~bytes:space);
      paid ();
      Hashtbl.length owed = 0)

let test_cache_writeback_on_eviction () =
  let c = Cache.create p in
  (* dirty a line, then displace it through both levels: addresses spaced by
     l2_bytes share both the L1 and the L2 set *)
  ignore (access c ~addr:0x40 ~write:true);
  let spaced k = 0x40 + (k * p.Params.l2_bytes) in
  let wb = ref [] in
  for k = 1 to 2 do
    let r = access c ~addr:(spaced k) ~write:true in
    wb := r.writeback_lines @ !wb
  done;
  checkb "dirty line eventually written back" true (List.mem 0x40 !wb)

let test_cache_flush_range () =
  let c = Cache.create p in
  ignore (access c ~addr:0x2000 ~write:true);
  ignore (access c ~addr:0x2020 ~write:true);
  ignore (access c ~addr:0x2040 ~write:false);
  checki "dirty lines counted" 2 (Cache.dirty_lines_in c ~addr:0x2000 ~bytes:0x80);
  let writebacks, cycles = flush c ~addr:0x2000 ~bytes:0x80 in
  checki "two dirty lines flushed" 2 (List.length writebacks);
  checkb "walk cost > 0" true (cycles > 0);
  (* after the flush, the lines are gone *)
  let r = access c ~addr:0x2000 ~write:false in
  checkb "flushed line misses" true (r.level = Cache.Memory);
  checki "no dirty lines left" 0 (Cache.dirty_lines_in c ~addr:0x2000 ~bytes:0x80)

let test_cache_invalidate_range () =
  let c = Cache.create p in
  ignore (access c ~addr:0x3000 ~write:true);
  let dropped = Cache.invalidate_range c ~addr:0x3000 ~bytes:32 in
  checki "one line dropped" 1 dropped;
  let r = access c ~addr:0x3000 ~write:false in
  checkb "invalidated line misses" true (r.level = Cache.Memory)

let test_cache_stats () =
  let c = Cache.create p in
  ignore (access c ~addr:0 ~write:false);
  ignore (access c ~addr:0 ~write:false);
  let s = Cache.stats c in
  checki "accesses" 2 s.Cache.accesses;
  checki "l1 hits" 1 s.Cache.l1_hits;
  checki "memory fills" 1 s.Cache.memory_fills;
  Cache.reset_stats c;
  checki "reset" 0 (Cache.stats c).Cache.accesses

(* property: accessing the same address twice in a row always hits L1 *)
let cache_rehit =
  QCheck.Test.make ~name:"immediate re-access hits L1" ~count:200
    QCheck.(list (pair (int_bound 0xFFFFF) bool))
    (fun ops ->
      let c = Cache.create p in
      List.for_all
        (fun (addr, write) ->
          ignore (access c ~addr ~write);
          (access c ~addr ~write:false).level = Cache.L1)
        ops)

(* property: flush_range leaves no dirty line behind in the range *)
let cache_flush_clean =
  QCheck.Test.make ~name:"flush leaves range clean" ~count:200
    QCheck.(list (int_bound 0xFFFF))
    (fun addrs ->
      let c = Cache.create p in
      List.iter (fun a -> ignore (access c ~addr:a ~write:true)) addrs;
      ignore (flush c ~addr:0 ~bytes:0x10000);
      Cache.dirty_lines_in c ~addr:0 ~bytes:0x10000 = 0)

let test_cache_write_through () =
  let c = Cache.create { p with Params.cache_policy = Params.Write_through } in
  (* every store reaches memory immediately... *)
  let r1 = access c ~addr:0x5000 ~write:true in
  checkb "store reported on the bus" true (List.mem 0x5000 r1.writeback_lines);
  let r2 = access c ~addr:0x5000 ~write:true in
  checkb "even on an L1 hit" true (List.mem 0x5000 r2.writeback_lines);
  (* ...so nothing is ever dirty and flushes are free *)
  checki "no dirty lines" 0 (Cache.dirty_lines_in c ~addr:0x5000 ~bytes:32);
  let writebacks, _ = flush c ~addr:0x5000 ~bytes:32 in
  checki "flush writes nothing back" 0 (List.length writebacks)

(* ------------------------------------------------------------------ *)
(* Packed cache against the record-and-list oracle                    *)
(* ------------------------------------------------------------------ *)

type op =
  | Access of int * bool
  | Flush of int * int
  | Invalidate of int * int
  | Count_dirty of int * int

let show_op = function
  | Access (a, w) -> Printf.sprintf "%s 0x%x" (if w then "st" else "ld") a
  | Flush (a, n) -> Printf.sprintf "flush 0x%x+%d" a n
  | Invalidate (a, n) -> Printf.sprintf "inval 0x%x+%d" a n
  | Count_dirty (a, n) -> Printf.sprintf "dirty 0x%x+%d" a n

(* a handful of lines, displaced by multiples of the L1 and the L2 size, so
   that accesses keep colliding in L1 sets and in L2 sets *)
let colliding_addr =
  QCheck.Gen.(
    map
      (fun (line, k1, k2, off) ->
        (line * p.Params.line_bytes) + (k1 * p.Params.l1_bytes) + (k2 * p.Params.l2_bytes) + off)
      (quad (int_bound 7) (int_bound 3) (int_bound 2) (int_bound 31)))

let cache_op =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun a w -> Access (a, w)) colliding_addr bool);
        (1, map2 (fun a n -> Flush (a, n)) colliding_addr (int_bound 256));
        (1, map2 (fun a n -> Invalidate (a, n)) colliding_addr (int_bound 256));
        (1, map2 (fun a n -> Count_dirty (a, n)) colliding_addr (int_bound 256));
      ])

let cache_program =
  QCheck.make
    ~print:(fun (wt, ops) ->
      Printf.sprintf "%s: %s" (if wt then "write-through" else "write-back")
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair bool (list_size (int_range 1 200) cache_op))

let oracle_level = function
  | Cache_oracle.L1 -> Cache.L1
  | Cache_oracle.L2 -> Cache.L2
  | Cache_oracle.Memory -> Cache.Memory

(* every access, flush, invalidate and count agrees with the oracle: cycles,
   level, the ordered write-back lines, and in the end the stats *)
let cache_matches_oracle =
  QCheck.Test.make ~name:"packed cache matches the record/list oracle" ~count:300 cache_program
    (fun (write_through, ops) ->
      let params = with_policy p ~write_through in
      let c = Cache.create params and o = Cache_oracle.create params in
      let step = function
        | Access (addr, write) ->
            let r = Cache_oracle.access_line o ~addr ~write in
            let got = access c ~addr ~write in
            got.cycles = r.Cache_oracle.cycles
            && got.level = oracle_level r.Cache_oracle.level
            && got.writeback_lines = r.Cache_oracle.writeback_lines
        | Flush (addr, bytes) -> flush c ~addr ~bytes = Cache_oracle.flush_range o ~addr ~bytes
        | Invalidate (addr, bytes) ->
            Cache.invalidate_range c ~addr ~bytes = Cache_oracle.invalidate_range o ~addr ~bytes
        | Count_dirty (addr, bytes) ->
            Cache.dirty_lines_in c ~addr ~bytes = Cache_oracle.dirty_lines_in o ~addr ~bytes
      in
      List.for_all step ops
      &&
      let s = Cache.stats c and so = Cache_oracle.stats o in
      s.Cache.accesses = so.Cache_oracle.accesses
      && s.Cache.l1_hits = so.Cache_oracle.l1_hits
      && s.Cache.l2_hits = so.Cache_oracle.l2_hits
      && s.Cache.memory_fills = so.Cache_oracle.memory_fills
      && s.Cache.writebacks = so.Cache_oracle.writebacks)

(* the shared-memory access path allocates nothing per line: after warm-up
   (level arrays and the write-back buffer at full size), 10k line accesses
   that keep spilling dirty lines through L2 to the snooped bus, plus one
   page flush, stay within a small constant (the flush's two clock charges
   suspend the fiber, and Gc.minor_words boxes its result) *)
let test_touch_no_alloc () =
  let cluster = Cluster.create ~nic_kind:(`Cni Cni_nic.Nic.default_cni_options) ~nodes:1 () in
  let words = ref nan in
  Cluster.run_app cluster (fun n ->
      let base = 1 lsl 40 and line = p.Params.line_bytes and page = p.Params.page_bytes in
      (* four lines congruent mod the L2 size: every access misses L1 and
         evicts a dirty line *)
      let sweep () =
        for i = 0 to 9_999 do
          let addr = base + ((i land 3) * p.Params.l2_bytes) + (((i lsr 2) land 63) * line) in
          Node.touch n ~addr ~bytes:line ~write:true
        done
      in
      sweep ();
      Node.touch n ~addr:base ~bytes:page ~write:true;
      Node.flush_range n ~addr:base ~bytes:page;
      Node.touch n ~addr:base ~bytes:page ~write:true;
      let before = Gc.minor_words () in
      sweep ();
      Node.flush_range n ~addr:base ~bytes:page;
      words := Gc.minor_words () -. before);
  checkb "write-backs reached the bus" true
    ((Bus.stats (Node.bus (Cluster.node cluster 0))).Bus.writeback_lines > 10_000);
  if !words > 256. then Alcotest.failf "10k touches + a page flush allocated %.0f minor words" !words

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cache_line_granularity () =
  let c = Cache.create p in
  ignore (access c ~addr:0x100 ~write:false);
  (* addresses within the same 32-byte line share the entry... *)
  checkb "same line" true ((access c ~addr:0x11F ~write:false).level = Cache.L1);
  (* ...the next line does not *)
  checkb "next line" true ((access c ~addr:0x120 ~write:false).level = Cache.Memory)

let test_cache_invalidate_multiple () =
  let c = Cache.create p in
  for k = 0 to 7 do
    ignore (access c ~addr:(0x4000 + (k * 32)) ~write:true)
  done;
  checki "eight lines dropped" 8 (Cache.invalidate_range c ~addr:0x4000 ~bytes:256);
  checki "second invalidate finds none" 0 (Cache.invalidate_range c ~addr:0x4000 ~bytes:256)

let test_zero_byte_ranges () =
  let c = Cache.create p in
  let wb, cycles = flush c ~addr:0x100 ~bytes:0 in
  checki "empty flush" 0 (List.length wb);
  checki "no walk cost" 0 cycles;
  checki "empty invalidate" 0 (Cache.invalidate_range c ~addr:0x100 ~bytes:0);
  checki "empty dirty count" 0 (Cache.dirty_lines_in c ~addr:0x100 ~bytes:0)

let test_tlb () =
  let t = Tlb.create ~entries:4 ~miss_cycles:30 ~page_bytes:2048 in
  checki "cold miss" 30 (Tlb.lookup t ~addr:0);
  checki "hit" 0 (Tlb.lookup t ~addr:100);
  checki "other page misses" 30 (Tlb.lookup t ~addr:2048);
  (* 4-entry direct-mapped: page 0 and page 4 conflict *)
  checki "conflict" 30 (Tlb.lookup t ~addr:(4 * 2048));
  checki "original evicted" 30 (Tlb.lookup t ~addr:0);
  Tlb.flush t;
  checki "flush drops all" 30 (Tlb.lookup t ~addr:0);
  let s = Tlb.stats t in
  checki "lookups" 6 s.Tlb.lookups;
  checki "misses" 5 s.Tlb.misses

(* ------------------------------------------------------------------ *)
(* Bus                                                                 *)
(* ------------------------------------------------------------------ *)

let test_bus_writeback_snoops () =
  let eng = Engine.create () in
  let bus = Bus.create eng p in
  let snooped = ref [] in
  Bus.register_snooper bus (fun ~dir ~addr ~bytes ->
      if dir = Bus.Cpu_writeback then snooped := (addr, bytes) :: !snooped);
  let t = Time.(Bus.writeback_line bus 0x40 + Bus.writeback_line bus 0x80) in
  checki "two lines snooped" 2 (List.length !snooped);
  (* each 32-byte line costs 4 + 4*2 = 12 bus cycles *)
  checki "occupancy" (2 * 12 * 40_000) (Time.to_ps t)

let test_bus_dma_serializes () =
  let eng = Engine.create () in
  let bus = Bus.create eng p in
  let done2 = ref Time.zero in
  Engine.spawn eng (fun () -> Bus.dma bus ~dir:Bus.Dma_from_memory ~addr:0 ~bytes:4096);
  Engine.spawn eng (fun () ->
      Bus.dma bus ~dir:Bus.Dma_to_memory ~addr:8192 ~bytes:4096;
      done2 := Engine.now eng);
  Engine.run eng;
  (* the second transfer had to wait for the first: 2 x 1028 bus cycles *)
  checki "serialized" (2 * 1028 * 40_000) (Time.to_ps !done2);
  let s = Bus.stats bus in
  checki "two transfers" 2 s.Bus.dma_transfers;
  checki "bytes" 8192 s.Bus.dma_bytes

let test_bus_dma_direction_snoop () =
  let eng = Engine.create () in
  let bus = Bus.create eng p in
  let dirs = ref [] in
  Bus.register_snooper bus (fun ~dir ~addr:_ ~bytes:_ -> dirs := dir :: !dirs);
  Engine.spawn eng (fun () ->
      Bus.dma bus ~dir:Bus.Dma_from_memory ~addr:0 ~bytes:64;
      Bus.dma bus ~dir:Bus.Dma_to_memory ~addr:0 ~bytes:64);
  Engine.run eng;
  check
    (Alcotest.list Alcotest.bool)
    "to-memory then from-memory seen"
    [ true; true ]
    (List.map (fun d -> d = Bus.Dma_to_memory || d = Bus.Dma_from_memory) !dirs)

(* a rejected direction takes no slot of the engine's closure stage: after
   a hundred rejections, a fresh slot is still one of the first eight *)
let test_bus_rejects_writeback_dir () =
  let eng = Engine.create () in
  let bus = Bus.create eng p in
  let raised = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        try Bus.dma bus ~dir:Bus.Cpu_writeback ~addr:0 ~bytes:8
        with Invalid_argument _ -> incr raised
      done);
  Engine.run eng;
  checki "bad direction rejected" 100 !raised;
  checkb "no slot leaked" true (Engine.hold eng ignore < 8)

(* a DMA's continuation, held on the engine's closure stage as [Bus.dma]
   holds a fiber's, is not kept alive once the transfer has run it *)
let[@inline never] plant_dma_continuation eng bus w =
  let v = ref 0 in
  Weak.set w 0 (Some v);
  Bus.dma_stage bus ~dir:Bus.Dma_to_memory ~addr:0 ~bytes:64 Engine.closure_stage
    (Engine.hold eng (fun () -> incr v))

let test_bus_dma_continuation_released () =
  let eng = Engine.create () in
  let bus = Bus.create eng p in
  let w = Weak.create 1 in
  plant_dma_continuation eng bus w;
  Engine.run eng;
  Gc.full_major ();
  checkb "continuation collected" true (Weak.get w 0 = None);
  checki "one transfer" 1 (Bus.stats bus).Bus.dma_transfers

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "machine"
    [
      ( "params",
        [
          Alcotest.test_case "derived bus costs" `Quick test_derived_costs;
          Alcotest.test_case "wire time" `Quick test_wire_time;
          Alcotest.test_case "cells_for" `Quick test_cells_for;
          Alcotest.test_case "geometry validation" `Quick test_validate;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss levels" `Quick test_cache_hit_miss;
          Alcotest.test_case "L1 victim spills to L2" `Quick test_cache_l1_conflict_spills_to_l2;
          Alcotest.test_case "write-back on eviction" `Quick test_cache_writeback_on_eviction;
          Alcotest.test_case "L2 promotion keeps a congruent victim" `Quick
            test_cache_promotion_keeps_congruent_victim;
          Alcotest.test_case "flush_range" `Quick test_cache_flush_range;
          Alcotest.test_case "invalidate_range" `Quick test_cache_invalidate_range;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "write-through policy" `Quick test_cache_write_through;
          qc cache_rehit;
          qc cache_flush_clean;
          qc cache_matches_oracle;
          qc cache_no_lost_dirty_line;
          Alcotest.test_case "touch + flush allocate nothing per line" `Quick test_touch_no_alloc;
        ] );
      ( "cache-extra",
        [
          Alcotest.test_case "line granularity" `Quick test_cache_line_granularity;
          Alcotest.test_case "invalidate multiple lines" `Quick test_cache_invalidate_multiple;
          Alcotest.test_case "zero-byte ranges" `Quick test_zero_byte_ranges;
        ] );
      ("tlb", [ Alcotest.test_case "direct-mapped behaviour" `Quick test_tlb ]);
      ( "bus",
        [
          Alcotest.test_case "write-backs snooped + costed" `Quick test_bus_writeback_snoops;
          Alcotest.test_case "DMA serialization" `Quick test_bus_dma_serializes;
          Alcotest.test_case "DMA direction snoop" `Quick test_bus_dma_direction_snoop;
          Alcotest.test_case "rejects writeback direction" `Quick test_bus_rejects_writeback_dir;
          Alcotest.test_case "a run DMA continuation is freed" `Quick
            test_bus_dma_continuation_released;
        ] );
    ]
