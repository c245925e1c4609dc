(** One-stop execution of an application on a freshly built cluster. *)

(** An application: runs on every node of a built cluster and returns its
    checksum. *)
type app =
  Cni_dsm.Protocol.msg Cni_cluster.Cluster.t -> Cni_dsm.Lrc.t array -> float

(** {2 The paper's three applications} *)

(** Jacobi relaxation on an [n] x [n] grid ({!Cni_apps.Jacobi}). *)
val jacobi : n:int -> iterations:int -> app

(** Water with [molecules] molecules ({!Cni_apps.Water}). *)
val water : molecules:int -> app

(** Sparse Cholesky of [matrix] ({!Cni_apps.Cholesky}), forced on the
    first run: the bcsstk-like inputs take a while to build. *)
val cholesky : Cni_apps.Sparse.t Lazy.t -> app

(** The bcsstk14-like input, built at most once per process. *)
val bcsstk14 : Cni_apps.Sparse.t Lazy.t

type result = {
  elapsed : Cni_engine.Time.t;
  elapsed_cycles : float;  (** in CPU cycles (the paper's unit) *)
  hit_ratio : float;  (** network cache hit ratio, percent *)
  computation : Cni_engine.Time.t;
  synch_overhead : Cni_engine.Time.t;
  synch_delay : Cni_engine.Time.t;
  packets : int;
  wire_bytes : int;
  offered_packets : int;
      (** every send attempt, including frames a crashed/link-down source
          never transmitted *)
  delivered_packets : int;  (** frames that reached their destination node *)
  hop_waits : int;
      (** multi-switch hops where port or wire contention delayed a frame *)
  banyan_conflicts : int;
      (** internal switch wire overlaps (counted on every topology, charged
          only on multi-switch ones) *)
  message_mix : (string * int) list;
      (** protocol messages received, by kind, summed over nodes *)
  retransmits : int;
      (** NIC-level retransmissions summed over nodes (0 with reliability
          disabled) *)
  fault_drops : int;
      (** frames destroyed by the injected fault model, summed over nodes *)
  host_interrupts : int;
      (** host interrupts taken, summed over nodes — zero on a CNI board when
          everything runs as AIHs; the standard board's cost of existence *)
  polls : int;
      (** receive wakeups delivered to a host poll, summed over nodes (see
          {!Cni_nic.Nic.rx_policy}) *)
  wasted_polls : int;
      (** empty receive-ring checks while in poll mode, summed over nodes *)
  checksum : float;  (** the application's checksum *)
  events : int;
      (** events the engine dispatched ({!Cni_engine.Engine.run_stats}) *)
  digest : int;
      (** the engine's event digest ({!Cni_engine.Engine.run_stats}): equal
          digests mean the same events ran at the same times in the same
          order *)
  metrics : Cni_engine.Stats.Registry.snapshot;
      (** full registry snapshot: every node's NIC, ring, Message Cache, DSM
          and time-accounting metrics *)
}

(** Convenience NIC kinds. [rx_policy] and [rx_batch] configure the receive
    wakeup policy and coalescing depth of the CNI board (see
    {!Cni_nic.Nic.cni_options}). *)
val cni :
  ?mc_bytes:int ->
  ?mc_mode:Cni_nic.Message_cache.mode ->
  ?aih:bool ->
  ?rx_policy:Cni_nic.Nic.rx_policy ->
  ?rx_batch:int ->
  unit ->
  Cni_cluster.Cluster.nic_kind

val standard : Cni_cluster.Cluster.nic_kind

(** The OSIRIS base board: the intermediate design point. *)
val osiris : Cni_cluster.Cluster.nic_kind

(** A cluster with the DSM protocol engines installed on every board. *)
type built = Cni_dsm.Protocol.msg Cni_cluster.Cluster.t * Cni_dsm.Lrc.t array

(** [build ~kind ~procs ()] is {!run}'s construction step on its own: the
    cluster, the shared address space and {!Cni_dsm.Lrc.install} (with the
    NIC-tree barrier when [barrier_impl] asks for it), stopped before the
    first event. [params] defaults to Table 1. [faults] makes the fabric
    lossy (implying NIC reliable delivery, see {!Cni_cluster.Cluster.create});
    [reliability] tunes or force-enables the delivery protocol;
    [topology] selects the fabric shape (see {!Cni_atm.Topology});
    [barrier_impl] selects the DSM barrier implementation.

    A configuration the install path rejects comes back as [Error] with the
    installer's message (see {!Check.catch}): a machine geometry, topology
    or fault model the cluster refuses, handlers that overflow board
    memory, a combining tree over more nodes than its header can name. *)
val build :
  ?params:Cni_machine.Params.t ->
  ?faults:Cni_atm.Faults.config ->
  ?reliability:Cni_nic.Reliable.config ->
  ?topology:Cni_atm.Topology.kind ->
  ?barrier_impl:[ `Centralised | `Nic_collective ] ->
  kind:Cni_cluster.Cluster.nic_kind ->
  procs:int ->
  unit ->
  (built, string) Stdlib.result

(** [exec built app] runs [app] on a built cluster to completion and
    collects the result. *)
val exec : built -> app -> result

(** [run ~kind ~procs app] is {!build} then {!exec}.
    @raise Invalid_argument with the build step's error. *)
val run :
  ?params:Cni_machine.Params.t ->
  ?faults:Cni_atm.Faults.config ->
  ?reliability:Cni_nic.Reliable.config ->
  ?topology:Cni_atm.Topology.kind ->
  ?barrier_impl:[ `Centralised | `Nic_collective ] ->
  kind:Cni_cluster.Cluster.nic_kind ->
  procs:int ->
  app ->
  result

(** [speedup ~t1 r] = t1 / elapsed. *)
val speedup : t1:Cni_engine.Time.t -> result -> float
