(** A workstation cluster: N nodes on an ATM fabric (a single central
    switch by default; see {!Cni_atm.Topology} for scale-out shapes).

    Polymorphic in the protocol-message payload type ['a] (the DSM layer
    instantiates it with its message type; examples use their own). *)

(** The board every node carries (see {!Cni_nic.Nic.kind}). *)
type nic_kind = Cni_nic.Nic.kind

type 'a t

(** [faults] attaches a {!Cni_atm.Faults} model to the fabric (ignored when
    it is {!Cni_atm.Faults.is_none}); a faulty fabric implies NIC-level
    reliable delivery — [reliability] defaults to
    {!Cni_nic.Reliable.default} whenever faults are active, and can be
    passed explicitly to tune it (or to enable reliability on a clean
    fabric). [reliability_off] forces NIC reliability off even under
    faults, for workloads that bring their own recovery protocol — the
    firmware-compiled {!Cni_nic.Reliable_ir} endpoints, notably — and
    accept raw loss everywhere else. Every fault model other than
    {!Cni_atm.Faults.none} is validated against the node count (see
    {!Cni_atm.Faults.validate}), and its schedule is wired onto engine
    timers. A crash freezes the node's application fiber
    ({!Node.freeze}), crashes its board ({!Cni_nic.Nic.crash}, scrubbing
    board memory if the event says so) and severs it from the fabric; a
    restart brings the board back ({!Cni_nic.Nic.restart}), reattaches the
    link and thaws the fiber.

    [topology] selects the fabric's interconnect shape (default
    {!Cni_atm.Topology.Single}, the seed central switch).

    @raise Invalid_argument listing every error of a machine geometry that
    fails {!Cni_machine.Params.validate}, every error of a fault model that
    fails {!Cni_atm.Faults.validate}, or on a topology that rejects the
    node count (see {!Cni_atm.Topology.validate}). *)
val create :
  ?params:Cni_machine.Params.t ->
  ?faults:Cni_atm.Faults.config ->
  ?reliability:Cni_nic.Reliable.config ->
  ?reliability_off:bool ->
  ?topology:Cni_atm.Topology.kind ->
  nic_kind:nic_kind ->
  nodes:int ->
  unit ->
  'a t

(** [sum t f] is [f node] summed over the nodes, for a cluster-wide total
    of a per-node NIC or fabric counter. *)
val sum : 'a t -> ('a Node.t -> int) -> int

(** Sum of NIC retransmissions over all nodes (0 when reliability is off). *)
val retransmits : 'a t -> int

val engine : 'a t -> Cni_engine.Engine.t
val params : 'a t -> Cni_machine.Params.t
val fabric : 'a t -> 'a Cni_atm.Fabric.t
val size : 'a t -> int
val node : 'a t -> int -> 'a Node.t
val nodes : 'a t -> 'a Node.t array
val is_cni : 'a t -> bool

(** Raised by {!run_app} when the event queue drained but some
    {e non-crashed} node's application fiber never finished — a protocol
    deadlock. [crashed] lists unfinished nodes that crashed without
    restarting (those alone do {e not} raise: they are expected casualties
    of the fault schedule). A printer is registered. *)
exception Deadlock of { unfinished : int list; crashed : int list }

(** [run_app t f] spawns one application fiber per node running [f node],
    drives the simulation until every event drains, and returns. Application
    exceptions propagate (annotated by the engine). [watchdog] bounds the
    run with {!Cni_engine.Engine.run_watched}: events still pending past the
    limit raise [Engine.Quiescence_timeout] instead of spinning forever.
    @raise Deadlock when a live node's fiber never finished. *)
val run_app : ?watchdog:Cni_engine.Time.t -> 'a t -> ('a Node.t -> unit) -> unit

(** Wall-clock of the slowest application fiber (valid after {!run_app}). *)
val elapsed : 'a t -> Cni_engine.Time.t

(** Mean network cache hit ratio over nodes whose Message Cache saw lookups
    (idle nodes are excluded from the average); 0. when no node saw any. *)
val network_cache_hit_ratio : 'a t -> float

(** The cluster's metrics registry. Every node's NIC, transmit-descriptor
    ring, Message Cache (and, when the DSM layer is attached, its protocol
    counters) register here as [node<N>/<subsystem>/<metric>]. *)
val metrics : 'a t -> Cni_engine.Stats.Registry.t

(** Refresh the per-node time-accounting gauges
    ([node<N>/node/{computation_ps,synch_overhead_ps,synch_delay_ps,
    service_ps,finish_ps}] and [cluster/elapsed_ps]) and return a snapshot of
    the whole registry. Valid after {!run_app}; idempotent. *)
val metrics_snapshot : 'a t -> Cni_engine.Stats.Registry.snapshot

(** Per-category totals summed over nodes (paper Tables 2-4 report sums over
    the run; we report the same). *)
type overheads = {
  computation : Cni_engine.Time.t;
  synch_overhead : Cni_engine.Time.t;
  synch_delay : Cni_engine.Time.t;
  total : Cni_engine.Time.t;  (** elapsed wall-clock of the slowest node *)
}

val overheads : 'a t -> overheads
