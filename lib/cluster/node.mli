(** A workstation node: CPU + two-level cache + TLB + memory bus + NIC,
    plus the time accounting the paper reports (Tables 2-4).

    Each node runs its application on one fiber. Time charged to that fiber
    is split into the paper's three categories:

    - {e computation}: application work and its memory traffic;
    - {e synch overhead}: CPU cycles spent executing protocol actions —
      client-side costs charged by the DSM layer, kernel/ADC send paths, and
      host CPU time stolen by interrupt-driven protocol service while the
      application was computing;
    - {e synch delay}: time the application spends blocked (lock and barrier
      waits, remote-request round trips).

    Application work is batched: {!work} and {!touch} accumulate cost that is
    flushed into the simulation clock at the next interaction point, keeping
    event counts low without changing any ordering that matters (all
    synchronisation goes through flushing entry points). *)

type 'a t

(** [registry], when given, is forwarded to the NIC so its counters land in
    the cluster's metrics registry under [node<id>/...]; [reliability]
    enables the NIC-level reliable-delivery protocol (see
    {!Cni_nic.Reliable}). *)
val create :
  ?registry:Cni_engine.Stats.Registry.t ->
  ?reliability:Cni_nic.Reliable.config ->
  Cni_engine.Engine.t ->
  Cni_machine.Params.t ->
  'a Cni_atm.Fabric.t ->
  id:int ->
  nic_kind:Cni_nic.Nic.kind ->
  'a t

val id : 'a t -> int
val params : 'a t -> Cni_machine.Params.t
val engine : 'a t -> Cni_engine.Engine.t
val nic : 'a t -> 'a Cni_nic.Nic.t
val cache : 'a t -> Cni_machine.Cache.t
val bus : 'a t -> Cni_machine.Bus.t

(** {2 Application-fiber operations} *)

(** [work t cycles] — application computation, in CPU cycles (batched). *)
val work : 'a t -> int -> unit

(** [touch t ~addr ~bytes ~write] — application memory traffic: walks the
    range a cache line at a time through the cache model; write-backs cross
    the bus (and are snooped by the Message Cache). Batched. *)
val touch : 'a t -> addr:int -> bytes:int -> write:bool -> unit

(** Charge client-side protocol work immediately (flushes batched work). *)
val overhead_cycles : 'a t -> int -> unit

val overhead_time : 'a t -> Cni_engine.Time.t -> unit

(** [blocking t f] runs blocking operation [f], accounting the elapsed time
    as synch delay; while inside, the NIC sees the host as waiting/polling. *)
val blocking : 'a t -> (unit -> 'b) -> 'b

(** Write back and drop all cache lines of a range; the write-backs cross
    the bus (snooped). Cost is charged as synch overhead (this is the
    pre-transfer flush of section 2.2, performed by protocol code). *)
val flush_range : 'a t -> addr:int -> bytes:int -> unit

(** Flush batched work into the simulated clock. *)
val flush_pending : 'a t -> unit

(** Mark the application fiber finished (records the completion time). *)
val finish : 'a t -> unit

(** Whether {!finish} has run (used to detect deadlocked runs). *)
val finished : 'a t -> bool

(** {2 Crash freeze}

    While a node is crashed its host makes no progress: {!freeze} parks the
    application fiber at its next interaction point (any operation that
    flushes batched work), and {!unfreeze} resumes it. Program state — host
    memory — survives; only time passes. Driven by the fault schedule a
    cluster is created with, together with the NIC-level crash. *)

val freeze : 'a t -> unit

(** Resume every fiber parked by {!freeze}; no-op if not frozen. *)
val unfreeze : 'a t -> unit

val frozen : 'a t -> bool

(** {2 Reporting} *)

type report = {
  computation : Cni_engine.Time.t;
  synch_overhead : Cni_engine.Time.t;
  synch_delay : Cni_engine.Time.t;
  finish_time : Cni_engine.Time.t;
  service_time : Cni_engine.Time.t;
      (** host CPU time spent serving remote protocol requests (subset
          already folded into overhead when it preempted computation) *)
  frozen_time : Cni_engine.Time.t;
      (** time the application fiber spent parked while its node was
          crashed (zero on a fault-free run) *)
}

val report : 'a t -> report
