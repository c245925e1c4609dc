(* Per-layer counters read from a finished cluster: each layer's own
   statistics, summed over nodes, under the metric names of BENCHMARK.json. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Stats = Cni_engine.Stats
module Cache = Cni_machine.Cache
module Bus = Cni_machine.Bus
module Fabric = Cni_atm.Fabric
module Topology = Cni_atm.Topology
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Lrc = Cni_dsm.Lrc

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let counter_sum snapshot suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Stats.Registry.Counter_v x when String.ends_with ~suffix name -> acc + x
      | _ -> acc)
    0 snapshot

let cluster c =
  let f = float_of_int in
  let sum g = Array.fold_left (fun acc n -> acc + g n) 0 (Cluster.nodes c) in
  let nic n = Nic.stats (Node.nic n) in
  let rel g n = match Nic.rel_stats (Node.nic n) with Some r -> g r | None -> 0 in
  let cache n = Cache.stats (Node.cache n) in
  let fab = Cluster.fabric c in
  let fs = Fabric.stats fab in
  let rs = Engine.run_stats (Cluster.engine c) in
  let accesses = sum (fun n -> (cache n).Cache.accesses) in
  let polls = sum (fun n -> (nic n).Nic.polls) in
  let retransmits = Cluster.retransmits c in
  let fault_drops = sum (fun n -> Fabric.fault_drops fab ~node:(Node.id n)) in
  let crash_drops = sum (fun n -> Fabric.crash_drops fab ~node:(Node.id n)) in
  (* frames that reached PATHFINDER: received frames less those the receive
     path drops or consumes first (CRC failures, undecodable headers, acks,
     duplicate and stale-epoch frames) *)
  let classified =
    sum (fun n ->
        let board = Node.nic n in
        (nic n).Nic.rx_packets - Nic.rx_crc_errors board - Nic.rx_undecodable board
        - rel (fun r -> r.Nic.acks_rx + r.Nic.rx_duplicates) n)
    - counter_sum (Cluster.metrics_snapshot c) "/nic/rx_stale_epoch"
  in
  (* the fabric computes a route per frame only on multi-switch shapes *)
  let route_calls =
    match Topology.kind (Fabric.topology fab) with
    | Topology.Single -> 0
    | Topology.Fat_tree _ | Topology.Torus _ -> fs.Fabric.packets
  in
  let o = Cluster.overheads c in
  [
    ("engine.events", f rs.Engine.events_dispatched);
    ("engine.max_heap_depth", f rs.Engine.max_heap_depth);
    ("engine.past_clamps", f rs.Engine.past_clamps);
    ("machine.cache_accesses", f accesses);
    ("machine.cache_miss_pct", pct (sum (fun n -> (cache n).Cache.memory_fills)) accesses);
    ("machine.bus_dma_bytes", f (sum (fun n -> (Bus.stats (Node.bus n)).Bus.dma_bytes)));
    ("pathfinder.classifications", f classified);
    ("pathfinder.unmatched", f (sum (fun n -> (nic n).Nic.unmatched)));
    ("nic.mc_hit_pct", Cluster.network_cache_hit_ratio c);
    ("nic.tx_dma_bytes", f (sum (fun n -> (nic n).Nic.tx_dma_bytes)));
    ("nic.interrupts", f (sum (fun n -> (nic n).Nic.interrupts)));
    ("nic.polls", f polls);
    ("nic.poll_useful_pct", pct polls (polls + sum (fun n -> (nic n).Nic.wasted_polls)));
    ("nic.retransmits", f retransmits);
    ("nic.retransmit_pct", pct retransmits (sum (fun n -> (nic n).Nic.tx_packets)));
    ("atm.frames_offered", f fs.Fabric.offered_packets);
    ("atm.frames_delivered", f fs.Fabric.delivered_packets);
    ("atm.fault_drops", f fault_drops);
    ( "atm.frames_unaccounted",
      f
        (fs.Fabric.offered_packets - fs.Fabric.delivered_packets - fault_drops - crash_drops
       - fs.Fabric.dropped) );
    ("atm.hop_waits", f fs.Fabric.hop_waits);
    ("atm.route_calls", f route_calls);
    ("cluster.computation_s", Time.to_s_float o.Cluster.computation);
    ("cluster.synch_overhead_s", Time.to_s_float o.Cluster.synch_overhead);
    ("cluster.synch_delay_s", Time.to_s_float o.Cluster.synch_delay);
  ]

let dsm lrcs =
  let sum g = float_of_int (Array.fold_left (fun acc l -> acc + g (Lrc.stats l)) 0 lrcs) in
  [
    ("dsm.remote_acquires", sum (fun s -> s.Lrc.remote_acquires));
    ("dsm.diff_fetches", sum (fun s -> s.Lrc.diff_fetches));
    ("dsm.page_fetches", sum (fun s -> s.Lrc.page_fetches));
  ]
