(** Open-loop key-value serving over {!Cni_mp.Mp}: N client nodes fire
    get/put RPCs at M server nodes on a schedule fixed before the run
    starts, and every response latency lands in a log-bucketed histogram.

    This is the workload the closed-loop SPLASH kernels cannot express:
    clients do {e not} wait for a response before issuing the next request,
    so when a server (or the fabric under it) falls behind, requests queue
    and the latency tail stretches instead of the offered load politely
    backing off. Each request is timestamped with its {e scheduled}
    generation time — not the moment the client fiber got around to
    sending it — so client-side stalls are charged to the requests they
    delay and the reported tail is free of coordinated omission
    (DESIGN.md §3c).

    Node layout: servers are cluster nodes [0 .. servers-1], clients are
    [servers .. servers+clients-1]. Requests are routed by key
    ([key mod servers]); every random draw comes from seeded
    {!Cni_engine.Rng} streams, so a run is a pure function of its
    configuration. *)

(** The latency histogram: {!Cni_engine.Stats.Histogram}, HDR-style with
    at most 1/32 relative error per quantile (the serving workload feeds
    it nanoseconds). *)
module Hist = Cni_engine.Stats.Histogram

(** Workload shape. All counts are per the whole run; [arrival] is
    evaluated once per client with the client's index (0-based) and must
    return a fresh inter-arrival-gap generator — the scenario layer wires
    {!Cni_experiments.Arrival} in here, keeping this library free of a
    dependency on the experiments layer. *)
type config = {
  clients : int;  (** client nodes (>= 1) *)
  servers : int;  (** server nodes (>= 1) *)
  requests_per_client : int;  (** open-loop requests each client issues (>= 1) *)
  arrival : int -> unit -> Cni_engine.Time.t;
      (** [arrival client] returns this client's gap generator; successive
          calls to the generator give successive inter-arrival gaps *)
  value_bytes : int;
      (** payload carried by a put request and a get response (>= 1);
          1024+ rides the NIC's bulk/DMA path *)
  put_pct : int;  (** percentage of requests that are puts, 0..100 *)
  seed : int;  (** seeds the per-client key/op draw streams *)
  service_cycles : int;
      (** host cycles a server spends computing each response (>= 0) *)
}

(** [validate c] explains every out-of-range field rather than raising; the
    scenario validator aggregates these. *)
val validate : config -> (unit, string list) Stdlib.result

(** Everything a serving run reports. Latency figures are microseconds of
    simulated time, measured from scheduled generation to response receipt;
    counter fields are summed over all nodes, mirroring
    {!Cni_experiments.Runner.result}. *)
type result = {
  requests : int;  (** requests issued ([clients * requests_per_client]) *)
  responses : int;  (** responses received (equal to [requests] on a drained run) *)
  gets : int;  (** get responses received *)
  puts : int;  (** put responses received *)
  elapsed_us : float;  (** simulated wall-clock of the whole run *)
  throughput_rps : float;  (** responses per simulated second *)
  mean_us : float;  (** mean response latency *)
  p50_us : float;  (** median response latency *)
  p99_us : float;  (** 99th-percentile response latency *)
  p999_us : float;  (** 99.9th-percentile response latency *)
  max_us : float;  (** exact worst response latency *)
  retransmits : int;  (** NIC-level re-sends (0 with reliability off) *)
  fault_drops : int;  (** frames destroyed by the fault model *)
  hop_waits : int;  (** multi-switch hops where contention delayed a frame *)
  host_interrupts : int;  (** host interrupts taken *)
  polls : int;  (** receive wakeups taken by a host poll *)
  wasted_polls : int;  (** empty ring checks while in poll mode *)
  hist : Hist.t;  (** the full latency distribution, nanosecond samples *)
}

(** [run ~nic_kind c] builds a [clients + servers]-node cluster, installs
    {!Cni_mp.Mp} endpoints, drives the open-loop workload to completion and
    collects the latency distribution plus fabric/NIC counters. [faults]
    and [topology] are passed straight to {!Cni_cluster.Cluster.create},
    on Table 1's machine; note a faulty fabric enables NIC-level reliable
    delivery with its default settings, which this workload's blocking
    receives rely on. [watchdog] (default 2
    simulated seconds) bounds the run; a hung run raises
    {!Cni_engine.Engine.Quiescence_timeout}.

    Deterministic: two runs with equal arguments produce identical results.
    @raise Invalid_argument when {!validate} rejects [c]. *)
val run :
  ?faults:Cni_atm.Faults.config ->
  ?topology:Cni_atm.Topology.kind ->
  ?watchdog:Cni_engine.Time.t ->
  nic_kind:Cni_cluster.Cluster.nic_kind ->
  config ->
  result
