(* Tests for the network interface layer: ADC rings, the wire header, the
   Message Cache (clock replacement, snooping), and the two NIC models on a
   live 2-node cluster. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Params = Cni_machine.Params
module Ring = Cni_nic.Ring
module Wire = Cni_nic.Wire
module Mc = Cni_nic.Message_cache
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_fifo () =
  let r = Ring.create ~slots:4 () in
  checkb "push" true (Ring.try_push r 1);
  checkb "push" true (Ring.try_push r 2);
  checkb "pop 1" true (Ring.try_pop r = Some 1);
  checkb "pop 2" true (Ring.try_pop r = Some 2);
  checkb "empty" true (Ring.try_pop r = None)

let test_ring_capacity () =
  let r = Ring.create ~slots:2 () in
  checkb "1" true (Ring.try_push r 1);
  checkb "2" true (Ring.try_push r 2);
  checkb "full rejects" false (Ring.try_push r 3);
  checkb "is_full" true (Ring.is_full r);
  ignore (Ring.try_pop r);
  checkb "space again" true (Ring.try_push r 3)

let test_ring_blocking () =
  let eng = Engine.create () in
  let r = Ring.create ~slots:1 () in
  let produced = ref [] and consumed = ref [] in
  Engine.spawn eng (fun () ->
      for i = 1 to 3 do
        Ring.push r i;
        produced := i :: !produced
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        Engine.delay (Time.ns 100);
        let v = Ring.pop r in
        consumed := v :: !consumed
      done);
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "all consumed in order" [ 1; 2; 3 ] (List.rev !consumed);
  let s = Ring.stats r in
  checki "pushes" 3 s.Ring.pushes;
  checki "pops" 3 s.Ring.pops;
  checkb "producer stalled on full ring" true (s.Ring.full_stalls > 0)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let h =
    { Wire.kind = 9; cacheable = true; has_data = true; src = 17; channel = 3; obj = 123456; aux = -7 }
  in
  let h' = Wire.decode (Wire.encode h) in
  checki "kind" h.Wire.kind h'.Wire.kind;
  checkb "cacheable" h.Wire.cacheable h'.Wire.cacheable;
  checkb "has_data" h.Wire.has_data h'.Wire.has_data;
  checki "src" h.Wire.src h'.Wire.src;
  checki "channel" h.Wire.channel h'.Wire.channel;
  checki "obj" h.Wire.obj h'.Wire.obj;
  checki "aux" h.Wire.aux h'.Wire.aux

let test_wire_bad_magic () =
  let b = Bytes.make Wire.header_bytes '\xFF' in
  Alcotest.check_raises "magic" (Invalid_argument "Wire.decode: bad magic") (fun () ->
      ignore (Wire.decode b));
  Alcotest.check_raises "short" (Invalid_argument "Wire.decode: short header") (fun () ->
      ignore (Wire.decode (Bytes.create 4)))

let test_wire_patterns () =
  let h kind channel =
    Wire.encode { Wire.kind; cacheable = false; has_data = false; src = 0; channel; obj = 0; aux = 0 }
  in
  let open Cni_pathfinder in
  checkb "any matches" true (Pattern.matches Wire.pattern_any (h 1 5));
  checkb "channel matches" true (Pattern.matches (Wire.pattern_channel ~channel:5) (h 1 5));
  checkb "channel rejects" false (Pattern.matches (Wire.pattern_channel ~channel:6) (h 1 5));
  checkb "channel+kind" true
    (Pattern.matches (Wire.pattern_channel_kind ~channel:5 ~kind:1) (h 1 5));
  checkb "kind rejects" false
    (Pattern.matches (Wire.pattern_channel_kind ~channel:5 ~kind:2) (h 1 5))

(* ------------------------------------------------------------------ *)
(* Message Cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_mc_lookup_bind () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(4 * 2048) ~mode:Mc.Update () in
  checki "capacity" 4 (Mc.capacity_pages mc);
  checkb "miss" false (Mc.lookup mc ~vpage:1);
  Mc.bind mc ~vpage:1;
  checkb "hit" true (Mc.lookup mc ~vpage:1);
  let s = Mc.stats mc in
  checki "hits" 1 s.Mc.hits;
  checki "misses" 1 s.Mc.misses;
  checki "binds" 1 s.Mc.binds;
  check (Alcotest.float 0.01) "ratio" 50.0 (Mc.hit_ratio mc)

let test_mc_clock_eviction () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(2 * 2048) ~mode:Mc.Update () in
  Mc.bind mc ~vpage:1;
  Mc.bind mc ~vpage:2;
  Mc.bind mc ~vpage:3;
  (* second-chance clock over 2 slots: exactly one of the old pages was
     displaced, the newcomer is resident *)
  checkb "page 3 bound" true (Mc.contains mc ~vpage:3);
  let survivors = List.filter (fun p -> Mc.contains mc ~vpage:p) [ 1; 2 ] in
  checki "one old page survives" 1 (List.length survivors);
  checki "one eviction" 1 (Mc.stats mc).Mc.evictions;
  (* a page the clock hand just granted a second chance to is preferred over
     an unreferenced one on the next pass *)
  Mc.bind mc ~vpage:4;
  checkb "page 4 bound" true (Mc.contains mc ~vpage:4);
  checki "two evictions" 2 (Mc.stats mc).Mc.evictions

let test_mc_snoop_update_keeps () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(4 * 2048) ~mode:Mc.Update () in
  Mc.bind mc ~vpage:3;
  (* a write-back covering pages 3..4 *)
  Mc.snoop mc ~addr:(3 * 2048) ~bytes:4096;
  checkb "binding survives (write-update)" true (Mc.contains mc ~vpage:3);
  checki "updates counted" 1 (Mc.stats mc).Mc.snoop_updates

let test_mc_snoop_invalidate_drops () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(4 * 2048) ~mode:Mc.Invalidate () in
  Mc.bind mc ~vpage:3;
  Mc.snoop mc ~addr:((3 * 2048) + 100) ~bytes:8;
  checkb "binding dropped (invalidate)" false (Mc.contains mc ~vpage:3);
  checki "invalidations counted" 1 (Mc.stats mc).Mc.snoop_invalidates

let test_mc_snoop_multi_page_update () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(8 * 2048) ~mode:Mc.Update () in
  List.iter (fun p -> Mc.bind mc ~vpage:p) [ 3; 4; 5 ];
  (* a write starting mid-page 3 and ending in page 5: all three pages are
     touched and updated in place *)
  Mc.snoop mc ~addr:((3 * 2048) + 10) ~bytes:(2 * 2048);
  List.iter (fun p -> checkb "binding survives" true (Mc.contains mc ~vpage:p)) [ 3; 4; 5 ];
  checki "one update per touched page" 3 (Mc.stats mc).Mc.snoop_updates

let test_mc_snoop_multi_page_invalidate () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(8 * 2048) ~mode:Mc.Invalidate () in
  List.iter (fun p -> Mc.bind mc ~vpage:p) [ 3; 4; 5; 6 ];
  Mc.snoop mc ~addr:((3 * 2048) + 10) ~bytes:(2 * 2048);
  List.iter (fun p -> checkb "touched page dropped" false (Mc.contains mc ~vpage:p)) [ 3; 4; 5 ];
  checkb "untouched page kept" true (Mc.contains mc ~vpage:6);
  checki "one invalidation per touched page" 3 (Mc.stats mc).Mc.snoop_invalidates

let test_mc_clock_all_referenced () =
  (* every resident page has its reference bit set: the clock hand must strip
     second chances on a full revolution and still evict, not spin forever *)
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(2 * 2048) ~mode:Mc.Update () in
  Mc.bind mc ~vpage:1;
  Mc.bind mc ~vpage:2;
  List.iter (fun p -> ignore (Mc.lookup mc ~vpage:p)) [ 1; 2 ];
  for p = 3 to 10 do
    Mc.bind mc ~vpage:p;
    checkb "newcomer resident" true (Mc.contains mc ~vpage:p)
  done;
  let bound = List.filter (fun p -> Mc.contains mc ~vpage:p) (List.init 10 (fun i -> i + 1)) in
  checkb "never over capacity" true (List.length bound <= 2);
  checki "one eviction per overflow bind" 8 (Mc.stats mc).Mc.evictions

let test_mc_unbind () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(4 * 2048) ~mode:Mc.Update () in
  Mc.bind mc ~vpage:9;
  Mc.unbind mc ~vpage:9;
  checkb "gone" false (Mc.contains mc ~vpage:9);
  Mc.unbind mc ~vpage:9 (* idempotent *)

let test_mc_rebind_refreshes () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:2048 ~mode:Mc.Update () in
  Mc.bind mc ~vpage:1;
  Mc.bind mc ~vpage:1;
  checki "no double bind" 1 (Mc.stats mc).Mc.binds;
  Mc.bind mc ~vpage:2;
  checkb "capacity 1: replaced" true
    (Mc.contains mc ~vpage:2 && not (Mc.contains mc ~vpage:1))

let test_mc_clock_eviction_order () =
  (* with every reference bit set the hand strips bits in slot order and
     evicts the first slot it revisits — page 1; the newcomer leaves page 2
     resident but unreferenced *)
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(2 * 2048) ~mode:Mc.Update () in
  Mc.bind mc ~vpage:1;
  Mc.bind mc ~vpage:2;
  Mc.bind mc ~vpage:3 (* hand sweeps: strips both bits, evicts slot 0 (page 1) *);
  checkb "page 1 evicted first (hand order)" false (Mc.contains mc ~vpage:1);
  checkb "page 2 survived on second chance" true (Mc.contains mc ~vpage:2);
  (* slots are now [3 referenced; 2 unreferenced] with the hand at page 2:
     the claim takes the unreferenced page immediately and the referenced
     one keeps its bit — no needless stripping past the victim *)
  Mc.bind mc ~vpage:4;
  checkb "referenced page 3 survives" true (Mc.contains mc ~vpage:3);
  checkb "unreferenced page 2 evicted" false (Mc.contains mc ~vpage:2);
  (* both slots referenced again with the hand back at slot 0: the sweep
     strips both bits and evicts the slot it revisits first — page 3 *)
  Mc.bind mc ~vpage:5;
  checkb "page 3 evicted on revisit (hand order)" false (Mc.contains mc ~vpage:3);
  checkb "page 4 survives" true (Mc.contains mc ~vpage:4)

let test_mc_claim_guard_exhaustion () =
  (* the guard bounds the sweep to two revolutions: even if reference bits
     are re-set behind the hand (pathological), claim_slot terminates and
     returns a slot. Simulate by re-referencing everything between binds. *)
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(4 * 2048) ~mode:Mc.Update () in
  for p = 1 to 4 do
    Mc.bind mc ~vpage:p
  done;
  for round = 1 to 20 do
    (* keep every resident page hot, then bind a newcomer anyway *)
    List.iter (fun p -> ignore (Mc.lookup mc ~vpage:p)) (Mc.bound_pages mc);
    let newcomer = 100 + round in
    Mc.bind mc ~vpage:newcomer;
    checkb "guard forces an eviction" true (Mc.contains mc ~vpage:newcomer);
    checki "capacity held" 4 (List.length (Mc.bound_pages mc))
  done

let test_mc_rebind_after_evict () =
  (* an evicted page must be re-bindable into a coherent state: the stale
     slot must not resurrect, and the buffer map must point at the new slot *)
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(2 * 2048) ~mode:Mc.Update () in
  Mc.bind mc ~vpage:1;
  Mc.bind mc ~vpage:2;
  Mc.bind mc ~vpage:3 (* evicts one of 1/2 *);
  let evicted = if Mc.contains mc ~vpage:1 then 2 else 1 in
  Mc.bind mc ~vpage:evicted (* bring it straight back *);
  checkb "rebound resident" true (Mc.contains mc ~vpage:evicted);
  checkb "lookup hits after rebind" true (Mc.lookup mc ~vpage:evicted);
  (* the slot array agrees: the page appears exactly once *)
  checki "exactly one slot holds it" 1
    (List.length (List.filter (fun p -> p = evicted) (Mc.bound_pages mc)));
  Mc.unbind mc ~vpage:evicted;
  checkb "unbind after rebind clean" false (Mc.contains mc ~vpage:evicted)

let test_mc_snoop_rtlb () =
  (* non-identity reverse translation: physical frame f maps to virtual page
     f+100. A write-back at physical addr 3*page must invalidate the buffer
     bound to VIRTUAL page 103, and must NOT touch virtual page 3. *)
  let page = 2048 in
  let mc =
    Mc.create
      ~phys_to_vpage:(fun addr -> (addr / page) + 100)
      ~page_bytes:page ~capacity_bytes:(8 * page) ~mode:Mc.Invalidate ()
  in
  Mc.bind mc ~vpage:103;
  Mc.bind mc ~vpage:3;
  Mc.snoop mc ~addr:(3 * page) ~bytes:8;
  checkb "translated page invalidated" false (Mc.contains mc ~vpage:103);
  checkb "untranslated page untouched" true (Mc.contains mc ~vpage:3);
  checki "one invalidation" 1 (Mc.stats mc).Mc.snoop_invalidates;
  (* a multi-page write-back translates every covered frame *)
  Mc.bind mc ~vpage:104;
  Mc.bind mc ~vpage:105;
  Mc.snoop mc ~addr:((4 * page) + 10) ~bytes:page;
  checkb "frame 4 -> vpage 104 dropped" false (Mc.contains mc ~vpage:104);
  checkb "frame 5 -> vpage 105 dropped" false (Mc.contains mc ~vpage:105)

(* property: after an arbitrary interleaving of bind/snoop/unbind, the buffer
   map ([contains]) and the slot array ([bound_pages]) agree exactly *)
let mc_map_slots_agree =
  let op =
    QCheck.(
      oneof
        [
          map (fun p -> `Bind p) (int_bound 30);
          map (fun p -> `Unbind p) (int_bound 30);
          map (fun (p, b) -> `Snoop (p, b)) (pair (int_bound 30) (int_range 1 5000));
          map (fun p -> `Lookup p) (int_bound 30);
        ])
  in
  QCheck.Test.make ~name:"buffer map agrees with slot array" ~count:300
    QCheck.(pair bool (list op))
    (fun (invalidate, ops) ->
      let mode = if invalidate then Mc.Invalidate else Mc.Update in
      let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(3 * 2048) ~mode () in
      List.iter
        (function
          | `Bind p -> Mc.bind mc ~vpage:p
          | `Unbind p -> Mc.unbind mc ~vpage:p
          | `Snoop (p, b) -> Mc.snoop mc ~addr:(p * 2048) ~bytes:b
          | `Lookup p -> ignore (Mc.lookup mc ~vpage:p))
        ops;
      let slots = Mc.bound_pages mc in
      let by_map =
        List.sort compare
          (List.filter (fun p -> Mc.contains mc ~vpage:p) (List.init 31 Fun.id))
      in
      slots = by_map && List.length slots <= 3)

(* property: a bind is immediately visible (the clock never evicts the page
   it just inserted) *)
let mc_bind_visible =
  QCheck.Test.make ~name:"fresh binding always resident" ~count:300
    QCheck.(list (int_bound 40))
    (fun pages ->
      let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(3 * 2048) ~mode:Mc.Update () in
      List.for_all
        (fun pg ->
          Mc.bind mc ~vpage:pg;
          Mc.contains mc ~vpage:pg)
        pages)

(* property: the buffer map never exceeds its capacity *)
let mc_capacity_respected =
  QCheck.Test.make ~name:"bindings never exceed capacity" ~count:200
    QCheck.(list (int_bound 50))
    (fun pages ->
      let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:(4 * 2048) ~mode:Mc.Update () in
      List.iter (fun p -> Mc.bind mc ~vpage:p) pages;
      let bound = List.filter (fun p -> Mc.contains mc ~vpage:p) (List.sort_uniq compare pages) in
      List.length bound <= 4)

(* ------------------------------------------------------------------ *)
(* NIC on a live cluster                                               *)
(* ------------------------------------------------------------------ *)

let channel = 11

let header ~src ~cacheable ~has_data =
  Wire.encode { Wire.kind = 1; cacheable; has_data; src; channel; obj = 0; aux = 0 }

(* send [count] data messages of [bytes] from node 0 to node 1, returning
   (cluster, per-message latencies) *)
let run_sends ~kind ~bytes ~count =
  let cluster : Time.t Cluster.t = Cluster.create ~nic_kind:kind ~nodes:2 () in
  let eng = Cluster.engine cluster in
  let latencies = ref [] in
  let wake = ref (fun () -> ()) in
  ignore
    (Nic.install_handler
       (Node.nic (Cluster.node cluster 1))
       ~pattern:(Wire.pattern_channel ~channel) ~code_bytes:64
       (fun ctx pkt ->
         if bytes > 0 then ctx.Nic.deliver_page ~vaddr:(1 lsl 21) ~bytes ~cacheable:false;
         latencies := Time.(Engine.now eng - pkt.Cni_atm.Fabric.payload) :: !latencies;
         !wake ()));
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then
        for _ = 1 to count do
          Nic.send (Node.nic node) ~dst:1
            ~header:(header ~src:0 ~cacheable:true ~has_data:(bytes > 0))
            ~body_bytes:0
            ~data:
              (if bytes > 0 then Nic.Page { vaddr = 1 lsl 20; bytes; cacheable = true }
               else Nic.No_data)
            ~payload:(Engine.now eng);
          Node.blocking node (fun () ->
              Engine.suspend (fun resume -> wake := fun () -> resume ()))
        done);
  (cluster, List.rev !latencies)

let cni = `Cni Nic.default_cni_options

let test_nic_transmit_caching () =
  let cluster, lat = run_sends ~kind:cni ~bytes:2048 ~count:3 in
  (match lat with
  | [ l1; l2; l3 ] ->
      checkb "second send faster (MC hit)" true (l2 < l1);
      checki "steady state" (Time.to_ps l2) (Time.to_ps l3)
  | _ -> Alcotest.fail "expected 3 latencies");
  let nic0 = Node.nic (Cluster.node cluster 0) in
  let s = Nic.stats nic0 in
  checki "3 data packets" 3 s.Nic.tx_data_packets;
  checki "only the first DMAed" 2048 s.Nic.tx_dma_bytes;
  check (Alcotest.float 0.1) "hit ratio 2/3" (200. /. 3.) (Nic.network_cache_hit_ratio nic0)

let test_nic_standard_always_dmas () =
  let cluster, lat = run_sends ~kind:`Standard ~bytes:2048 ~count:3 in
  (match lat with
  | [ l1; l2; l3 ] ->
      checki "no warmup effect" (Time.to_ps l1) (Time.to_ps l2);
      checki "steady" (Time.to_ps l2) (Time.to_ps l3)
  | _ -> Alcotest.fail "expected 3 latencies");
  let s = Nic.stats (Node.nic (Cluster.node cluster 0)) in
  checki "every send DMAed" (3 * 2048) s.Nic.tx_dma_bytes

let test_nic_mc_disabled () =
  let kind = `Cni { Nic.default_cni_options with Nic.mc_bytes = 0 } in
  let cluster, _ = run_sends ~kind ~bytes:2048 ~count:3 in
  let nic0 = Node.nic (Cluster.node cluster 0) in
  checkb "no message cache" true (Nic.message_cache nic0 = None);
  checki "every send DMAed" (3 * 2048) (Nic.stats nic0).Nic.tx_dma_bytes

let test_nic_interrupt_vs_poll () =
  (* receiver host is idle (not waiting): CNI without AIH interrupts *)
  let kind = `Cni { Nic.default_cni_options with Nic.aih = false } in
  let cluster, _ = run_sends ~kind ~bytes:0 ~count:2 in
  let s1 = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checki "interrupts on idle host" 2 s1.Nic.interrupts;
  (* with AIH the board absorbs them *)
  let cluster, _ = run_sends ~kind:cni ~bytes:0 ~count:2 in
  let s1 = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checki "no interrupts under AIH" 0 s1.Nic.interrupts

let test_nic_standard_interrupts () =
  let cluster, _ = run_sends ~kind:`Standard ~bytes:0 ~count:4 in
  let s1 = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checki "interrupt per packet" 4 s1.Nic.interrupts

(* node 0 sends one empty frame per entry in [gaps], pausing that long after
   each send; the receiving host stays busy-idle so every wakeup crosses the
   configured receive policy. Returns (cluster, frames delivered). *)
let run_paced ~kind ~gaps =
  let cluster : Time.t Cluster.t = Cluster.create ~nic_kind:kind ~nodes:2 () in
  let eng = Cluster.engine cluster in
  let got = ref 0 in
  ignore
    (Nic.install_handler
       (Node.nic (Cluster.node cluster 1))
       ~pattern:(Wire.pattern_channel ~channel) ~code_bytes:64
       (fun _ _ -> incr got));
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then
        List.iter
          (fun gap ->
            Nic.send (Node.nic node) ~dst:1
              ~header:(header ~src:0 ~cacheable:false ~has_data:false)
              ~body_bytes:0 ~data:Nic.No_data ~payload:(Engine.now eng);
            if Time.to_ps gap > 0 then Engine.delay gap)
          gaps);
  (cluster, !got)

let test_nic_rx_poll_policy () =
  let kind =
    `Cni { Nic.default_cni_options with Nic.aih = false; rx_policy = Nic.Rx_poll }
  in
  let cluster, got = run_paced ~kind ~gaps:(List.init 4 (fun _ -> Time.us 50)) in
  checki "all frames delivered" 4 got;
  let s = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checki "poll mode never interrupts" 0 s.Nic.interrupts;
  checki "one productive poll per frame" 4 s.Nic.polls;
  checkb "empty ring checks charged during the gaps" true (s.Nic.wasted_polls > 0)

let test_nic_rx_adaptive_transitions () =
  let kind =
    `Cni
      {
        Nic.default_cni_options with
        Nic.aih = false;
        rx_policy = Nic.Rx_adaptive Nic.default_rx_adaptive;
      }
  in
  (* a hot burst (2 us apart) must pull the estimator into poll mode; the
     closing 1 ms gap must push it back out to interrupt mode *)
  let gaps = List.init 8 (fun _ -> Time.us 2) @ [ Time.ms 1; Time.zero ] in
  let cluster, got = run_paced ~kind ~gaps in
  checki "all frames delivered" 10 got;
  let nic1 = Node.nic (Cluster.node cluster 1) in
  let s = Nic.stats nic1 in
  checkb "entered poll mode during the burst" true (s.Nic.mode_poll > 0);
  checkb "took interrupts while idle" true (s.Nic.mode_interrupt > 0);
  checkb "at least hot and cold transitions" true (s.Nic.mode_switches >= 2);
  checkb "long gap returns the board to interrupt mode" true
    (Nic.rx_mode nic1 = `Interrupt)

let test_nic_rx_batch_coalescing () =
  let kind which batch =
    `Cni
      { Nic.default_cni_options with Nic.aih = false; rx_policy = which; rx_batch = batch }
  in
  let burst = List.init 8 (fun _ -> Time.zero) in
  (* without coalescing: the seed behaviour, one interrupt per frame *)
  let cluster, got = run_paced ~kind:(kind Nic.Rx_interrupt 1) ~gaps:burst in
  checki "baseline delivers all" 8 got;
  let s1 = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checki "baseline interrupt per frame" 8 s1.Nic.interrupts;
  checki "baseline never coalesces" 0 s1.Nic.coalesced;
  (* rx_batch 8: one wakeup drains the backlog that built up behind it *)
  let cluster, got = run_paced ~kind:(kind Nic.Rx_interrupt 8) ~gaps:burst in
  checki "batched delivers all" 8 got;
  let s8 = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checkb "fewer interrupts than frames" true (s8.Nic.interrupts < 8);
  checkb "riders counted" true (s8.Nic.coalesced > 0);
  checki "every frame either interrupted or rode along" 8
    (s8.Nic.interrupts + s8.Nic.coalesced)

let test_nic_unmatched_counted () =
  let cluster : unit Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let hits = ref 0 in
  Nic.set_default_handler (Node.nic (Cluster.node cluster 1)) (fun _ _ -> incr hits);
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then
        Nic.send (Node.nic node) ~dst:1
          ~header:(header ~src:0 ~cacheable:false ~has_data:false)
          ~body_bytes:0 ~data:Nic.No_data ~payload:());
  checki "default handler ran" 1 !hits;
  checki "unmatched counted" 1 (Nic.stats (Node.nic (Cluster.node cluster 1))).Nic.unmatched

let test_nic_handler_memory_accounting () =
  let cluster : unit Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let nic = Node.nic (Cluster.node cluster 0) in
  let before = Nic.handler_code_bytes nic in
  ignore
    (Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:30) ~code_bytes:4096
       (fun _ _ -> ()));
  checki "code bytes tracked" (before + 4096) (Nic.handler_code_bytes nic);
  (* board memory is finite: 1 MB minus the Message Cache *)
  match
    Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:31)
      ~code_bytes:(2 * 1024 * 1024) (fun _ _ -> ())
  with
  | _ -> Alcotest.fail "expected overflow failure"
  | exception Failure msg ->
      checkb "mentions board memory" true
        (try
           ignore (Str.search_forward (Str.regexp_string "board memory") msg 0);
           true
         with Not_found -> false)

let test_nic_install_validates_code_bytes () =
  let cluster : unit Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let nic = Node.nic (Cluster.node cluster 0) in
  List.iter
    (fun bad ->
      match
        Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:32) ~code_bytes:bad
          (fun _ _ -> ())
      with
      | _ -> Alcotest.failf "code_bytes %d accepted" bad
      | exception Invalid_argument _ -> ())
    [ 0; -5 ];
  checki "nothing was charged" 0 (Nic.handler_code_bytes nic);
  (* the overflow diagnostic must tell the caller how much board memory is
     actually left *)
  ignore
    (Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:33) ~code_bytes:1000
       (fun _ _ -> ()));
  let p = Nic.params nic in
  let mc = Params.(p.message_cache_bytes) in
  let free = Params.(p.nic_memory_bytes) - mc - 1000 in
  match
    Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:34)
      ~code_bytes:(2 * 1024 * 1024) (fun _ _ -> ())
  with
  | _ -> Alcotest.fail "expected overflow failure"
  | exception Failure msg ->
      checkb
        (Printf.sprintf "message %S reports the %d free bytes" msg free)
        true
        (try
           ignore (Str.search_forward (Str.regexp_string (Printf.sprintf "(%d)" free)) msg 0);
           true
         with Not_found -> false)

let test_nic_board_memory_reclamation () =
  (* install/uninstall and channel open/close cycles must return the board's
     memory accounting exactly to its starting point: segments are
     whole-allocation, so any leak compounds until installs start failing *)
  let cluster : unit Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let nic = Node.nic (Cluster.node cluster 0) in
  let start = Nic.handler_code_bytes nic in
  for round = 1 to 3 do
    let h1 =
      Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:35) ~code_bytes:512
        (fun _ _ -> ())
    in
    let h2 =
      Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel:36) ~code_bytes:4096
        (fun _ _ -> ())
    in
    let adc = Cni_nic.Adc.open_channel nic ~channel:37 () in
    checkb
      (Printf.sprintf "round %d: installs consumed memory" round)
      true
      (Nic.handler_code_bytes nic > start + 512 + 4096);
    Cni_nic.Adc.close adc;
    Nic.uninstall_handler nic h2;
    Nic.uninstall_handler nic h1;
    (* double uninstall must not double-free *)
    Nic.uninstall_handler nic h1;
    checki (Printf.sprintf "round %d: all memory reclaimed" round) start
      (Nic.handler_code_bytes nic)
  done

let test_osiris_profile () =
  (* OSIRIS: user-level sends (no kernel), but an interrupt per packet and a
     DMA for every transfer *)
  let cluster, lat = run_sends ~kind:`Osiris ~bytes:2048 ~count:3 in
  (match lat with
  | [ l1; l2; l3 ] ->
      checki "no warm-up effect (no Message Cache)" (Time.to_ps l1) (Time.to_ps l2);
      checki "steady" (Time.to_ps l2) (Time.to_ps l3)
  | _ -> Alcotest.fail "expected 3 latencies");
  let s0 = Nic.stats (Node.nic (Cluster.node cluster 0)) in
  checki "every send DMAed" (3 * 2048) s0.Nic.tx_dma_bytes;
  checkb "no message cache" true (Nic.message_cache (Node.nic (Cluster.node cluster 0)) = None);
  let s1 = Nic.stats (Node.nic (Cluster.node cluster 1)) in
  checki "interrupt per packet" 3 s1.Nic.interrupts

let test_osiris_cheaper_than_standard () =
  let one kind =
    let _, lat = run_sends ~kind ~bytes:512 ~count:1 in
    List.hd lat
  in
  let o = one `Osiris and s = one `Standard in
  checkb "user-level send beats kernel path" true (Time.to_ps o < Time.to_ps s)

(* Host time a computing receiver loses to [paced_frames] frames: node 0
   paces them 100 us apart at node 1, whose application computes throughout
   and whose handler charges nothing, so everything in its overhead category
   was stolen by the receive path. *)
let paced_frames = 20

let stolen_host_ps kind =
  let frames = paced_frames in
  let cluster : unit Cluster.t = Cluster.create ~nic_kind:kind ~nodes:2 () in
  let got = ref 0 in
  ignore
    (Nic.install_handler
       (Node.nic (Cluster.node cluster 1))
       ~pattern:(Wire.pattern_channel ~channel) ~code_bytes:64
       (fun _ _ -> incr got));
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then
        for _ = 1 to frames do
          Nic.send (Node.nic node) ~dst:1 ~header:(header ~src:0 ~cacheable:false ~has_data:false)
            ~body_bytes:0 ~data:Nic.No_data ~payload:();
          Engine.delay (Time.us 100)
        done
      else
        while !got < frames do
          Node.work node 2_000;
          Node.overhead_time node Time.zero
        done);
  checki "every frame delivered" frames !got;
  Time.to_ps (Node.report (Cluster.node cluster 1)).Node.synch_overhead

let test_one_interrupt_per_frame () =
  let p = Params.default in
  let interrupt = Time.to_ps p.Params.interrupt_latency in
  checki "OSIRIS: one interrupt latency per frame" (paced_frames * interrupt)
    (stolen_host_ps `Osiris);
  checki "CNI, interrupt-only host handlers: the same" (paced_frames * interrupt)
    (stolen_host_ps
       (`Cni { Nic.default_cni_options with Nic.aih = false; rx_policy = Nic.Rx_interrupt }));
  checki "standard: the interrupt plus its kernel demux"
    (paced_frames * (interrupt + Time.to_ps (Params.cpu_cycles p p.Params.kernel_recv_cycles)))
    (stolen_host_ps `Standard)

let test_mc_hit_ratio_empty () =
  let mc = Mc.create ~page_bytes:2048 ~capacity_bytes:4096 ~mode:Mc.Update () in
  check (Alcotest.float 0.001) "no traffic = 0%" 0.0 (Mc.hit_ratio mc);
  checkb "no traffic = None" true (Mc.hit_ratio_opt mc = None);
  Mc.lookup mc ~vpage:1 |> ignore;
  Mc.bind mc ~vpage:1;
  Mc.lookup mc ~vpage:1 |> ignore;
  checkb "with traffic = Some" true (Mc.hit_ratio_opt mc = Some 50.0);
  Mc.reset_stats mc;
  check (Alcotest.float 0.001) "after reset back to 0" 0.0 (Mc.hit_ratio mc)

let test_nic_reply_path () =
  let cluster : string Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let got = ref "" in
  let wake = ref (fun () -> ()) in
  ignore
    (Nic.install_handler
       (Node.nic (Cluster.node cluster 1))
       ~pattern:(Wire.pattern_channel_kind ~channel ~kind:1) ~code_bytes:64
       (fun ctx pkt ->
         ctx.Nic.charge 50;
         ctx.Nic.reply ~dst:pkt.Cni_atm.Fabric.src
           ~header:
             (Wire.encode
                { Wire.kind = 2; cacheable = false; has_data = false; src = 1; channel; obj = 0; aux = 0 })
           ~body_bytes:8 ~data:Nic.No_data ~payload:"pong"));
  ignore
    (Nic.install_handler
       (Node.nic (Cluster.node cluster 0))
       ~pattern:(Wire.pattern_channel_kind ~channel ~kind:2) ~code_bytes:64
       (fun _ pkt ->
         got := pkt.Cni_atm.Fabric.payload;
         !wake ()));
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        Nic.send (Node.nic node) ~dst:1
          ~header:(header ~src:0 ~cacheable:false ~has_data:false)
          ~body_bytes:8 ~data:Nic.No_data ~payload:"ping";
        Node.blocking node (fun () ->
            Engine.suspend (fun resume -> wake := fun () -> resume ()))
      end);
  check Alcotest.string "round trip" "pong" !got


(* ------------------------------------------------------------------ *)
(* ADC channels                                                        *)
(* ------------------------------------------------------------------ *)

module Adc = Cni_nic.Adc

let test_adc_roundtrip () =
  let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let rx = Adc.open_channel (Node.nic (Cluster.node cluster 1)) ~channel:21 () in
  let got = ref [] in
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        let tx = Adc.open_channel (Node.nic node) ~channel:21 () in
        for i = 1 to 5 do
          Adc.send tx ~dst:1 i
        done
      end
      else
        for _ = 1 to 5 do
          let pkt = Node.blocking node (fun () -> Adc.recv rx) in
          got := pkt.Cni_atm.Fabric.payload :: !got
        done);
  check (Alcotest.list Alcotest.int) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !got);
  checki "channel id" 21 (Adc.channel_id rx);
  checki "drained" 0 (Adc.backlog rx)

let test_adc_backpressure () =
  (* a 2-slot ring: the board stalls deliveries until the app consumes *)
  let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let rx = Adc.open_channel (Node.nic (Cluster.node cluster 1)) ~channel:22 ~slots:2 () in
  let got = ref 0 in
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        let tx = Adc.open_channel (Node.nic node) ~channel:22 () in
        for i = 1 to 8 do
          Adc.send tx ~dst:1 i
        done
      end
      else
        for _ = 1 to 8 do
          (* slow consumer *)
          Node.work node 50_000;
          ignore (Node.blocking node (fun () -> Adc.recv rx));
          incr got
        done);
  checki "all delivered despite tiny ring" 8 !got

let test_adc_close_falls_through () =
  let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let rx = Adc.open_channel (Node.nic (Cluster.node cluster 1)) ~channel:23 () in
  Adc.close rx;
  let fallback = ref 0 in
  Nic.set_default_handler (Node.nic (Cluster.node cluster 1)) (fun _ _ -> incr fallback);
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        let tx = Adc.open_channel (Node.nic node) ~channel:23 () in
        Adc.send tx ~dst:1 1
      end);
  checki "closed channel falls to default" 1 !fallback

(* Two channels on the same receiving node must deliver bulk data into
   DISTINCT posted buffers — the old code hard-wired one address for every
   channel, so concurrent channels clobbered each other's pages. The bus
   snooper observes where each DMA write actually lands. *)
let test_adc_two_channel_delivery () =
  let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let receiver = Cluster.node cluster 1 in
  let rx_a = Adc.open_channel (Node.nic receiver) ~channel:21 () in
  let rx_b = Adc.open_channel (Node.nic receiver) ~channel:22 () in
  let dma_writes = ref [] in
  Cni_machine.Bus.register_snooper (Node.bus receiver) (fun ~dir ~addr ~bytes:_ ->
      if dir = Cni_machine.Bus.Dma_to_memory then dma_writes := addr :: !dma_writes);
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        let tx_a = Adc.open_channel (Node.nic node) ~channel:21 () in
        let tx_b = Adc.open_channel (Node.nic node) ~channel:22 () in
        let page = Nic.Page { vaddr = 1 lsl 20; bytes = 2048; cacheable = false } in
        Adc.send tx_a ~dst:1 ~data:page 1;
        Adc.send tx_b ~dst:1 ~data:page 2
      end
      else begin
        ignore (Node.blocking node (fun () -> Adc.recv rx_a));
        ignore (Node.blocking node (fun () -> Adc.recv rx_b))
      end);
  let addrs = List.sort_uniq compare !dma_writes in
  checki "two distinct delivery addresses" 2 (List.length addrs);
  checkb "channel buffers are per-channel" true
    (List.mem (Adc.buffer_base rx_a) addrs && List.mem (Adc.buffer_base rx_b) addrs);
  checkb "buffers differ" true (Adc.buffer_base rx_a <> Adc.buffer_base rx_b)

(* Bulk data handed to [Adc.send] must be charged on the wire exactly once:
   the same payload through the raw NIC send (which owns the exactly-once
   accounting) produces the same fabric byte count. *)
let test_adc_send_wire_accounting () =
  let wire_bytes ~send =
    let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
    let rx = Adc.open_channel (Node.nic (Cluster.node cluster 1)) ~channel:21 () in
    Cluster.run_app cluster (fun node ->
        if Node.id node = 0 then send node
        else ignore (Node.blocking node (fun () -> Adc.recv rx)));
    (Cni_atm.Fabric.stats (Cluster.fabric cluster)).Cni_atm.Fabric.wire_bytes
  in
  let bytes = 4096 in
  let page = Nic.Page { vaddr = 1 lsl 20; bytes; cacheable = false } in
  let via_adc =
    wire_bytes ~send:(fun node ->
        let tx = Adc.open_channel (Node.nic node) ~channel:21 () in
        Adc.send tx ~dst:1 ~data:page 7)
  in
  let via_nic =
    wire_bytes ~send:(fun node ->
        Nic.send (Node.nic node) ~dst:1
          ~header:
            (Wire.encode
               {
                 Wire.kind = 0;
                 cacheable = false;
                 has_data = true;
                 src = 0;
                 channel = 21;
                 obj = 0;
                 aux = 0;
               })
          ~body_bytes:0 ~data:page ~payload:7)
  in
  checki "ADC bulk send = raw send (data counted once)" via_nic via_adc;
  (* and the data actually dominates the frame: it cannot have been dropped
     or doubled (header-only is ~one cell; doubled would exceed 2x) *)
  checkb "frame carries the payload" true (via_adc >= bytes);
  checkb "payload not serialised twice" true (via_adc < 2 * bytes)

(* the ring is host memory: a channel charges the board its delivery
   handler, whatever the ring's size *)
let test_adc_board_memory () =
  let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:1 () in
  let nic = Node.nic (Cluster.node cluster 0) in
  let before = Nic.handler_code_bytes nic in
  let small = Adc.open_channel nic ~channel:24 ~slots:16 () in
  let charge = Nic.handler_code_bytes nic - before in
  checkb "the delivery handler is charged" true (charge > 0);
  let big = Adc.open_channel nic ~channel:25 ~slots:4096 () in
  checki "ring slots charge no board memory" (before + (2 * charge))
    (Nic.handler_code_bytes nic);
  Adc.close small;
  Adc.close big;
  checki "close reclaims the segment" before (Nic.handler_code_bytes nic)

(* ------------------------------------------------------------------ *)
(* Crash: board memory and the host's install table                     *)
(* ------------------------------------------------------------------ *)

module Reliable = Cni_nic.Reliable
module Fabric = Cni_atm.Fabric
module Ir = Cni_aih.Aih_ir

(* An installation's handle outlives scrubs: after a scrub and a restart,
   uninstalling with the handle install returned frees the board memory
   and deprograms the pattern, and a second scrub does not bring the
   handler back. *)
let uninstall_after_scrub ~install ~uninstall () =
  let cluster : int Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let nic = Node.nic (Cluster.node cluster 1) in
  let baseline = Nic.handler_code_bytes nic in
  let h = install nic in
  checkb "installed" true (Nic.handler_code_bytes nic > baseline);
  Nic.crash nic ~scrub:true;
  Nic.restart nic;
  uninstall nic h;
  checki "board memory back at baseline" baseline (Nic.handler_code_bytes nic);
  Nic.crash nic ~scrub:true;
  Nic.restart nic;
  checki "a second scrub brings nothing back" baseline (Nic.handler_code_bytes nic);
  let fallback = ref 0 in
  Nic.set_default_handler nic (fun _ _ -> incr fallback);
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then
        Nic.send (Node.nic node) ~dst:1
          ~header:(header ~src:0 ~cacheable:false ~has_data:false)
          ~body_bytes:0 ~data:Nic.No_data ~payload:0);
  checki "a frame on the channel reaches the default handler" 1 !fallback

let test_uninstall_after_scrub =
  uninstall_after_scrub
    ~install:(fun nic ->
      Nic.install_handler nic ~pattern:(Wire.pattern_channel ~channel) ~code_bytes:512
        (fun _ _ -> ()))
    ~uninstall:Nic.uninstall_handler

let test_adc_close_after_scrub =
  uninstall_after_scrub
    ~install:(fun nic -> Adc.open_channel nic ~channel ())
    ~uninstall:(fun _ ch -> Adc.close ch)

let install_verified ?(on_wake = fun ~seq:_ ~value:_ -> ()) nic ~channel program =
  match
    Nic.install_handler_verified nic ~pattern:(Wire.pattern_channel ~channel) ~program
      ~entry:(fun _ -> [||])
      ~on_send:(fun _ ~dst:_ ~kind:_ ~obj:_ ~value:_ -> ())
      ~on_wake
  with
  | Ok vh -> vh
  | Error rjs -> Alcotest.failf "rejected: %s" (Cni_aih.Aih_verify.explain_all rjs)

let test_verified_uninstall_after_scrub =
  uninstall_after_scrub
    ~install:(fun nic -> install_verified nic ~channel (snd (List.hd Cni_aih.Aih_corpus.good)))
    ~uninstall:(fun nic vh -> Nic.uninstall_handler nic vh.Nic.vh_handle)

(* firmware that counts its activations in segment word 0 and wakes the
   host with the count *)
let segment_counter =
  let a = Ir.Asm.create () in
  let open Ir.Asm in
  const a 0 0;
  load a 1 ~base:0 0;
  bini a Add 1 1 1;
  store a 1 ~base:0 0;
  wake a ~seq:0 ~value:1;
  halt a;
  assemble a ~name:"segment-counter" ~seg_words:1 ~inputs:0

(* One scrub of a board holding every kind of board state (closure and
   firmware handlers, a non-zero segment, Message Cache bindings) and
   every kind of host state (a parked frame, a receive window above 0,
   acked frames queued for a coalesced wakeup, the install table). After
   the crash each board item is empty and each host item is unchanged;
   after the restart the board classifies and charges as before. *)
let test_scrub_residency () =
  let kind =
    `Cni { Nic.default_cni_options with Nic.aih = false; rx_policy = Nic.Rx_interrupt; rx_batch = 8 }
  in
  let cluster : int Cluster.t =
    Cluster.create ~reliability:Reliable.default ~nic_kind:kind ~nodes:2 ()
  in
  let eng = Cluster.engine cluster in
  let nic1 = Node.nic (Cluster.node cluster 1) in
  let mc = Option.get (Nic.message_cache nic1) in
  let frames = 5 and delivered = ref 0 and wakes = ref [] in
  ignore
    (Nic.install_handler nic1 ~pattern:(Wire.pattern_channel ~channel) (fun ctx _ ->
         incr delivered;
         (* the first frame holds the host's interrupt level for 1.2 ms:
            the wakeup of every later frame queues behind it *)
         if !delivered = 1 then ctx.Nic.charge 200_000));
  let vh =
    install_verified nic1 ~channel:41 segment_counter ~on_wake:(fun ~seq:_ ~value ->
        wakes := value :: !wakes)
  in
  let activate () = Nic.local_dispatch nic1 (fun ctx -> vh.Nic.vh_activate ctx [||]) in
  let frame ~src ~channel ~aux =
    Wire.encode { Wire.kind = 1; cacheable = false; has_data = false; src; channel; obj = 0; aux }
  in
  let rel () = Option.get (Nic.rel_stats nic1) in
  let restarts () =
    let module R = Cni_engine.Stats.Registry in
    match List.assoc_opt "node1/nic/restarts" (R.snapshot (Cluster.metrics cluster)) with
    | Some (R.Counter_v n) -> n
    | Some _ | None -> 0
  in
  Cluster.run_app cluster (fun node ->
      let nic = Node.nic node in
      let send ~channel =
        Nic.send nic ~dst:(1 - Node.id node) ~header:(frame ~src:(Node.id node) ~channel ~aux:0)
          ~body_bytes:0 ~data:Nic.No_data ~payload:0
      in
      let await cond =
        Node.blocking node (fun () -> while not (cond ()) do Engine.delay (Time.us 5) done)
      in
      if Node.id node = 0 then begin
        Engine.delay (Time.us 100);
        send ~channel;
        Engine.delay (Time.us 50);
        for _ = 2 to frames do
          send ~channel
        done;
        Engine.delay (Time.ms 3);
        send ~channel
      end
      else begin
        (* a transmit-cached page binds in the Message Cache *)
        Nic.send nic ~dst:0 ~header:(frame ~src:1 ~channel:42 ~aux:0) ~body_bytes:0
          ~data:(Nic.Page { vaddr = 1 lsl 20; bytes = 2048; cacheable = true }) ~payload:0;
        await (fun () -> Nic.rel_pending_count nic = 0);
        for _ = 1 to 3 do
          activate ()
        done;
        (* every frame acked (the window's floor is 5), one delivered: the
           rest wait in the coalescing queue *)
        await (fun () -> (rel ()).Nic.acks_tx = frames && !delivered = 1);
        send ~channel:43;
        let pending = Nic.rel_pending_count nic and code = Nic.handler_code_bytes nic in
        let stats = Nic.stats nic and acks = (rel ()).Nic.acks_tx in
        check (Alcotest.list Alcotest.int) "segment counts three activations" [ 3; 2; 1 ] !wakes;
        checkb "Message Cache bindings" true (Mc.bound_pages mc <> []);
        checki "an un-acked frame" 1 pending;
        Nic.crash nic ~scrub:true;
        checki "board: no handler code" 0 (Nic.handler_code_bytes nic);
        check (Alcotest.list Alcotest.int) "board: no Message Cache bindings" []
          (Mc.bound_pages mc);
        checki "host: the frame parked" pending (Nic.rel_pending_count nic);
        checki "host: acked frames still queued" (acks - 1) ((rel ()).Nic.acks_tx - !delivered);
        checkb "host: counters" true (stats = Nic.stats nic);
        checki "host: no restart counted" 0 (restarts ());
        (* waits for the interrupt level, so after the checks above *)
        activate ();
        checki "board: the segment is gone" 1 (List.hd !wakes);
        Nic.restart nic;
        checki "restart: counted in the registry" 1 (restarts ());
        checki "restart: the same code bytes" code (Nic.handler_code_bytes nic);
        (* the window survived: a copy of seq 1 is a duplicate *)
        Fabric.send (Cluster.fabric cluster)
          { Fabric.src = 0; dst = 1; vci = 0; header = frame ~src:0 ~channel ~aux:1;
            body_bytes = 0; payload = 0; crc_ok = true };
        activate ();
        checki "restart: a fresh segment" 1 (List.hd !wakes);
        await (fun () -> Engine.now eng > Time.ms 4)
      end);
  checki "every frame delivered once, the one after the restart too" (frames + 1) !delivered;
  checki "the copy of seq 1 was a duplicate" 1 (rel ()).Nic.rx_duplicates;
  checki "nothing left unmatched" 0 (Nic.stats nic1).Nic.unmatched;
  checki "the parked frame went out" 0 (Nic.rel_pending_count nic1)

(* ------------------------------------------------------------------ *)
(* Receive engine decisions, without a cluster, engine or fiber         *)
(* ------------------------------------------------------------------ *)

module Rx = Cni_nic.Rx

(* The policy as DESIGN.md section 3a states it, transcribed apart from Rx:
   the estimate e <- alpha*g + (1-alpha)*e, starting at the first gap;
   poll when e <= the poll gap, interrupt when e >= the interrupt gap,
   hybrid between, except that poll mode is left only above poll gap * h
   and interrupt mode only below interrupt gap / h; floor(g / 5 us) - 1
   wasted polls, in poll mode only; a hybrid wake polls exactly when the
   host waits. *)
module Design_3a = struct
  let ewma (a : Rx.adaptive) prev g =
    match prev with None -> g | Some e -> (a.Rx.ra_alpha *. g) +. ((1. -. a.Rx.ra_alpha) *. e)

  let mode (a : Rx.adaptive) (cur : Rx.mode) e : Rx.mode =
    let pg = float_of_int (Time.to_ps a.Rx.ra_poll_gap)
    and ig = float_of_int (Time.to_ps a.Rx.ra_interrupt_gap)
    and h = a.Rx.ra_hysteresis in
    match cur with
    | `Poll when e <= pg *. h -> `Poll
    | `Interrupt when e >= ig /. h -> `Interrupt
    | _ -> if e <= pg then `Poll else if e >= ig then `Interrupt else `Hybrid

  let wasted (cur : Rx.mode) g = if cur = `Poll then max 0 ((g / Time.to_ps (Time.us 5)) - 1) else 0

  let wake (cur : Rx.mode) waiting =
    match cur with
    | `Hybrid -> if waiting then `Poll else `Interrupt
    | (`Poll | `Interrupt) as m -> m
end

let modes : Rx.mode list = [ `Interrupt; `Hybrid; `Poll ]

let show_mode = function `Interrupt -> "interrupt" | `Hybrid -> "hybrid" | `Poll -> "poll"

let gen_adaptive =
  QCheck.Gen.(
    map4
      (fun ra_alpha poll_us span_us ra_hysteresis ->
        { Rx.ra_alpha; ra_poll_gap = Time.us poll_us;
          ra_interrupt_gap = Time.us (poll_us + span_us); ra_hysteresis })
      (oneof [ return 1.0; float_range 0.01 1.0 ])
      (int_range 1 100) (int_range 1 400)
      (oneof [ return 1.0; float_range 1.0 4.0 ]))

(* a gap in ps: zero, 1 ns to 2 ms (log-uniform), or an outlier up to 1 s *)
let gen_gap =
  QCheck.Gen.(
    frequency
      [
        (1, return 0);
        (8, map (fun x -> int_of_float (1e3 *. (2e6 ** x))) (float_bound_inclusive 1.0));
        (1, int_range 2_000_000_000 1_000_000_000_000);
      ])

let show_adaptive (a : Rx.adaptive) =
  Printf.sprintf "alpha=%g poll=%dps interrupt=%dps h=%g" a.Rx.ra_alpha
    (Time.to_ps a.Rx.ra_poll_gap) (Time.to_ps a.Rx.ra_interrupt_gap) a.Rx.ra_hysteresis

(* Streams of steady phases (one gap repeated) move the estimate through
   every regime; each step checks every decision against the reference. *)
let rx_decisions_follow_design =
  let gen =
    QCheck.Gen.(
      pair gen_adaptive
        (map List.concat
           (list_size (int_range 1 12)
              (map2 (fun g n -> List.init n (fun _ -> g)) gen_gap (int_range 1 12)))))
  in
  let print (a, gaps) =
    Printf.sprintf "%s gaps=[%s]" (show_adaptive a)
      (String.concat ";" (List.map string_of_int gaps))
  in
  QCheck.Test.make ~name:"rx decisions follow DESIGN 3a" ~count:500 (QCheck.make ~print gen)
    (fun (a, gaps) ->
      let step (mode, est, ok) g =
        let e = Rx.ewma a est ~gap_ps:g in
        let next = Rx.next_mode a mode e in
        let agree =
          e = Design_3a.ewma a est (float_of_int g)
          && next = Design_3a.mode a mode e
          && List.for_all
               (fun m ->
                 let w = Rx.wasted_polls m ~gap_ps:g in
                 w >= 0 && w = Design_3a.wasted m g
                 && List.for_all
                      (fun waiting -> Rx.wake_kind m ~waiting = Design_3a.wake m waiting)
                      [ true; false ])
               modes
        in
        (next, Some e, ok && agree)
      in
      let _, _, ok = List.fold_left step (`Interrupt, None, true) gaps in
      ok)

let rx_constant_gap_switches_once =
  let print (a, g) = Printf.sprintf "%s gap=%dps" (show_adaptive a) g in
  QCheck.Test.make ~name:"rx mode under a constant gap switches at most once" ~count:500
    (QCheck.make ~print QCheck.Gen.(pair gen_adaptive gen_gap))
    (fun (a, g) ->
      let rec go n mode est trail =
        if n = 0 then
          List.length trail <= 2
          || QCheck.Test.fail_reportf "modes %s"
               (String.concat " -> " (List.rev_map show_mode trail))
        else
          let e = Rx.ewma a est ~gap_ps:g in
          let next = Rx.next_mode a mode e in
          go (n - 1) next (Some e) (if next <> mode then next :: trail else trail)
      in
      go 300 `Interrupt None [ `Interrupt ])

(* The per-frame allocation of the nic kernel's shape: 1,000 frames between
   two CNI boards, AIH off, so each frame crosses the whole transmit path,
   the fabric and the host receive path. The board and wire steps run on
   the frame's pooled record and allocate nothing; what is left is the
   packet, the sending fiber's delay and the handler's fiber with its host
   context, 69 words. A closure per stage cost 238. *)
let test_frame_allocation () =
  let p = Params.default in
  let header =
    Wire.encode
      { Wire.kind = 0; cacheable = false; has_data = false; src = 0; channel = 7; obj = 0; aux = 0 }
  in
  let host =
    { Nic.host_waiting = (fun () -> false); steal = ignore;
      invalidate_range = (fun ~addr:_ ~bytes:_ -> ()); overhead = ignore }
  in
  let kind = `Cni { Nic.default_cni_options with Nic.aih = false } in
  let eng = Engine.create () in
  let fabric = Cni_atm.Fabric.create eng p ~nodes:2 in
  let board node = Nic.create ~kind eng (Cni_machine.Bus.create eng p) fabric ~node ~host in
  let tx = board 0 and rx = board 1 in
  let got = ref 0 in
  ignore (Nic.install_handler rx ~pattern:(Wire.pattern_channel ~channel:7) (fun _ _ -> incr got));
  let n = 1000 in
  Engine.spawn eng (fun () ->
      for _ = 1 to n do
        Nic.send tx ~dst:1 ~header ~body_bytes:64 ~data:Nic.No_data ~payload:()
      done);
  let before = Gc.minor_words () in
  Engine.run eng;
  let per_frame = (Gc.minor_words () -. before) /. float_of_int n in
  checki "every frame delivered" n !got;
  checkb (Printf.sprintf "%.1f minor words per frame, bound 80" per_frame) true (per_frame <= 80.)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "nic"
    [
      ( "ring",
        [
          Alcotest.test_case "FIFO" `Quick test_ring_fifo;
          Alcotest.test_case "capacity" `Quick test_ring_capacity;
          Alcotest.test_case "blocking producer/consumer" `Quick test_ring_blocking;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "bad input" `Quick test_wire_bad_magic;
          Alcotest.test_case "patterns" `Quick test_wire_patterns;
        ] );
      ( "message-cache",
        [
          Alcotest.test_case "lookup/bind" `Quick test_mc_lookup_bind;
          Alcotest.test_case "clock eviction" `Quick test_mc_clock_eviction;
          Alcotest.test_case "snoop write-update" `Quick test_mc_snoop_update_keeps;
          Alcotest.test_case "snoop invalidate" `Quick test_mc_snoop_invalidate_drops;
          Alcotest.test_case "snoop spans pages (update)" `Quick test_mc_snoop_multi_page_update;
          Alcotest.test_case "snoop spans pages (invalidate)" `Quick
            test_mc_snoop_multi_page_invalidate;
          Alcotest.test_case "clock evicts with all bits set" `Quick test_mc_clock_all_referenced;
          Alcotest.test_case "clock eviction order" `Quick test_mc_clock_eviction_order;
          Alcotest.test_case "claim guard under all-hot slots" `Quick
            test_mc_claim_guard_exhaustion;
          Alcotest.test_case "rebind after evict" `Quick test_mc_rebind_after_evict;
          Alcotest.test_case "snoop reverse-translates (RTLB)" `Quick test_mc_snoop_rtlb;
          Alcotest.test_case "unbind" `Quick test_mc_unbind;
          Alcotest.test_case "rebind refreshes" `Quick test_mc_rebind_refreshes;
          qc mc_capacity_respected;
          qc mc_bind_visible;
          qc mc_map_slots_agree;
        ] );
      ( "nic",
        [
          Alcotest.test_case "transmit caching" `Quick test_nic_transmit_caching;
          Alcotest.test_case "standard always DMAs" `Quick test_nic_standard_always_dmas;
          Alcotest.test_case "MC disabled" `Quick test_nic_mc_disabled;
          Alcotest.test_case "interrupt vs poll vs AIH" `Quick test_nic_interrupt_vs_poll;
          Alcotest.test_case "standard interrupts per packet" `Quick test_nic_standard_interrupts;
          Alcotest.test_case "poll receive policy" `Quick test_nic_rx_poll_policy;
          Alcotest.test_case "adaptive mode transitions" `Quick test_nic_rx_adaptive_transitions;
          Alcotest.test_case "receive batch coalescing" `Quick test_nic_rx_batch_coalescing;
          Alcotest.test_case "unmatched packets" `Quick test_nic_unmatched_counted;
          Alcotest.test_case "handler memory accounting" `Quick test_nic_handler_memory_accounting;
          Alcotest.test_case "install validates code_bytes" `Quick
            test_nic_install_validates_code_bytes;
          Alcotest.test_case "board memory reclamation" `Quick test_nic_board_memory_reclamation;
          Alcotest.test_case "AIH reply path" `Quick test_nic_reply_path;
          Alcotest.test_case "OSIRIS profile" `Quick test_osiris_profile;
          Alcotest.test_case "OSIRIS beats standard send" `Quick test_osiris_cheaper_than_standard;
          Alcotest.test_case "one interrupt per frame on a computing host" `Quick
            test_one_interrupt_per_frame;
          Alcotest.test_case "MC hit ratio on empty" `Quick test_mc_hit_ratio_empty;
          Alcotest.test_case "frame stages allocate no closures" `Quick test_frame_allocation;
        ] );
      ("rx", [ qc rx_decisions_follow_design; qc rx_constant_gap_switches_once ]);
      ( "adc",
        [
          Alcotest.test_case "roundtrip in order" `Quick test_adc_roundtrip;
          Alcotest.test_case "ring back-pressure" `Quick test_adc_backpressure;
          Alcotest.test_case "close falls through" `Quick test_adc_close_falls_through;
          Alcotest.test_case "two channels, distinct buffers" `Quick
            test_adc_two_channel_delivery;
          Alcotest.test_case "bulk data charged once" `Quick test_adc_send_wire_accounting;
          Alcotest.test_case "board memory accounting" `Quick test_adc_board_memory;
        ] );
      ( "crash",
        [
          Alcotest.test_case "uninstall after a scrub" `Quick test_uninstall_after_scrub;
          Alcotest.test_case "ADC close after a scrub" `Quick test_adc_close_after_scrub;
          Alcotest.test_case "verified uninstall after a scrub" `Quick
            test_verified_uninstall_after_scrub;
          Alcotest.test_case "scrub drops board memory, keeps host state" `Quick
            test_scrub_residency;
        ] );
    ]
