(** Crash/restart chaos harness.

    Builds a deterministic node-fault schedule from a seed (disjoint
    crash->restart windows over random victims — node 0, the DSM manager, is
    spared) and injects it into a real application run, reporting recovery
    metrics. Two invocations with the same arguments produce identical
    metrics; the [ablation-chaos] report and the CI chaos smoke both rely on
    that. *)

type metrics = {
  outcome : string;  (** "ok" or the structured failure that ended the run *)
  completed : bool;
  elapsed_us : float;
  crashes : int;  (** crash events in the schedule *)
  restarts : int;
  retransmits : int;
  crash_drops : int;  (** frames the fabric dropped at a dead board *)
  recoveries : int;  (** restarted boards that saw traffic again *)
  mean_recovery_us : float;
      (** mean restart-to-first-frame latency over [recoveries] *)
  rx_timeouts : int;  (** open-loop receives that gave up (ring runs only) *)
  checksum : float;  (** application checksum; [nan] when the run failed *)
}

(** [schedule ~seed ~nodes ~crashes ~start ~slot ~down ~scrub] — the raw
    schedule builder: crash [k] lands in time slot [start + k*slot] (plus
    seeded jitter) and restarts [down] later. Always passes
    {!Cni_atm.Faults.validate}.
    @raise Invalid_argument when [slot] does not exceed [down] plus the
    jitter bound, or on [crashes > 0] with fewer than 2 nodes. *)
val schedule :
  seed:int ->
  nodes:int ->
  crashes:int ->
  start:Cni_engine.Time.t ->
  slot:Cni_engine.Time.t ->
  down:Cni_engine.Time.t ->
  scrub:bool ->
  Cni_atm.Faults.event list

(** Closed-loop chaos: Jacobi over the DSM under a crash schedule. Crashed
    hosts freeze and thaw; reliable delivery retries across the dead window,
    so the run is expected to complete with the fault-free checksum, the
    crashes paid for as elapsed time. A 1 s simulated watchdog turns an
    unrecovered run into a structured failure row. *)
val run_dsm :
  ?seed:int ->
  ?procs:int ->
  ?n:int ->
  ?iterations:int ->
  ?scrub:bool ->
  ?kind:Cni_cluster.Cluster.nic_kind ->
  crashes:int ->
  down:Cni_engine.Time.t ->
  unit ->
  metrics

(** Open-loop chaos: a token ring over {!Cni_mp.Mp} where every receive is a
    [recv_timeout] — a round whose predecessor is crashed gives up after
    400 us and moves on, so the ring degrades (counted in [rx_timeouts])
    instead of stalling. A 1 s simulated watchdog bounds the run. *)
val run_ring :
  ?seed:int ->
  ?nodes:int ->
  ?rounds:int ->
  ?scrub:bool ->
  ?kind:Cni_cluster.Cluster.nic_kind ->
  crashes:int ->
  down:Cni_engine.Time.t ->
  unit ->
  metrics
