module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Fabric = Cni_atm.Fabric
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Space = Cni_dsm.Space
module Lrc = Cni_dsm.Lrc

type app = Cni_dsm.Protocol.msg Cluster.t -> Lrc.t array -> float
type built = Cni_dsm.Protocol.msg Cluster.t * Lrc.t array

type result = {
  elapsed : Time.t;
  elapsed_cycles : float;
  hit_ratio : float;
  computation : Time.t;
  synch_overhead : Time.t;
  synch_delay : Time.t;
  packets : int;
  wire_bytes : int;
  offered_packets : int;  (* every send attempt, incl. source-side drops *)
  delivered_packets : int;  (* frames that reached their destination node *)
  hop_waits : int;  (* multi-switch hops where contention delayed a frame *)
  banyan_conflicts : int;  (* internal switch wire overlaps *)
  message_mix : (string * int) list;  (* protocol messages by kind, summed *)
  retransmits : int;  (* NIC-level re-sends, summed (0 with reliability off) *)
  fault_drops : int;  (* frames the fault model destroyed, summed over nodes *)
  host_interrupts : int;  (* host interrupts taken, summed over nodes *)
  polls : int;  (* receive wakeups taken by a host poll, summed over nodes *)
  wasted_polls : int;  (* empty ring checks while in poll mode, summed *)
  checksum : float;
  events : int;  (* events the engine dispatched *)
  digest : int;  (* the engine's event digest *)
  metrics : Cni_engine.Stats.Registry.snapshot;
}

let jacobi ~n ~iterations cluster lrcs =
  (Cni_apps.Jacobi.run cluster lrcs { Cni_apps.Jacobi.default_config with n; iterations })
    .Cni_apps.Jacobi.checksum

let water ~molecules cluster lrcs =
  (Cni_apps.Water.run cluster lrcs { Cni_apps.Water.default_config with molecules })
    .Cni_apps.Water.checksum

let cholesky matrix cluster lrcs =
  let module Cholesky = Cni_apps.Cholesky in
  (Cholesky.run cluster lrcs (Cholesky.default_config (Lazy.force matrix))).Cholesky.checksum

let bcsstk14 = lazy (Cni_apps.Cholesky.bcsstk14_like ())

let cni ?mc_bytes ?mc_mode ?aih ?rx_policy ?rx_batch () =
  let d = Nic.default_cni_options in
  `Cni
    {
      Nic.mc_bytes = Option.value mc_bytes ~default:d.Nic.mc_bytes;
      mc_mode = Option.value mc_mode ~default:d.Nic.mc_mode;
      aih = Option.value aih ~default:d.Nic.aih;
      rx_policy = Option.value rx_policy ~default:d.Nic.rx_policy;
      rx_batch = Option.value rx_batch ~default:d.Nic.rx_batch;
    }

let standard = `Standard
let osiris = `Osiris

let build ?(params = Params.default) ?faults ?reliability ?topology ?barrier_impl ~kind ~procs
    () =
  Check.catch (fun () ->
      let cluster =
        Cluster.create ~params ?faults ?reliability ?topology ~nic_kind:kind ~nodes:procs ()
      in
      let space = Space.create ~nprocs:procs ~page_bytes:params.Params.page_bytes in
      (cluster, Lrc.install cluster space ?barrier_impl ()))

let exec (cluster, lrcs) app =
  let params = Cluster.params cluster in
  let checksum = app cluster lrcs in
  let o = Cluster.overheads cluster in
  let f = Fabric.stats (Cluster.fabric cluster) in
  let elapsed = Cluster.elapsed cluster in
  let engine = Cni_engine.Engine.run_stats (Cluster.engine cluster) in
  let mix = Hashtbl.create 12 in
  Array.iter
    (fun l ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace mix k (n + Option.value (Hashtbl.find_opt mix k) ~default:0))
        (Lrc.received_messages l))
    lrcs;
  {
    elapsed;
    elapsed_cycles = Time.to_s_float elapsed *. float_of_int params.Params.cpu_hz;
    hit_ratio = Cluster.network_cache_hit_ratio cluster;
    computation = o.Cluster.computation;
    synch_overhead = o.Cluster.synch_overhead;
    synch_delay = o.Cluster.synch_delay;
    packets = f.Fabric.packets;
    wire_bytes = f.Fabric.wire_bytes;
    offered_packets = f.Fabric.offered_packets;
    delivered_packets = f.Fabric.delivered_packets;
    hop_waits = f.Fabric.hop_waits;
    banyan_conflicts = f.Fabric.banyan_conflicts;
    message_mix = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) mix []);
    retransmits = Cluster.retransmits cluster;
    fault_drops =
      Cluster.sum cluster (fun n ->
          Fabric.fault_drops (Cluster.fabric cluster) ~node:(Node.id n));
    host_interrupts = Cluster.sum cluster (fun n -> (Nic.stats (Node.nic n)).Nic.interrupts);
    polls = Cluster.sum cluster (fun n -> (Nic.stats (Node.nic n)).Nic.polls);
    wasted_polls = Cluster.sum cluster (fun n -> (Nic.stats (Node.nic n)).Nic.wasted_polls);
    checksum;
    events = engine.Cni_engine.Engine.events_dispatched;
    digest = engine.Cni_engine.Engine.digest;
    metrics = Cluster.metrics_snapshot cluster;
  }

let run ?params ?faults ?reliability ?topology ?barrier_impl ~kind ~procs app =
  match build ?params ?faults ?reliability ?topology ?barrier_impl ~kind ~procs () with
  | Ok built -> exec built app
  | Error msg -> invalid_arg msg

let speedup ~t1 r = Time.to_s_float t1 /. Time.to_s_float r.elapsed
