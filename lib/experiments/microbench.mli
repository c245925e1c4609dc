(** Figure 14: node-to-node latency microbenchmark.

    One-way latency of a message between two nodes, as seen by the receiving
    application, assuming a 100% network cache hit ratio for CNI (the buffer
    is sent once to warm the Message Cache; the second, measured send elides
    the host-memory DMA). *)

type point = {
  bytes : int;
  cni_us : float;
  standard_us : float;
  reduction_pct : float;
}

(** [latency ~kind ~bytes] — one-way latency of the second send of the same
    buffer. *)
val latency :
  ?params:Cni_machine.Params.t ->
  kind:Cni_cluster.Cluster.nic_kind ->
  bytes:int ->
  unit ->
  Cni_engine.Time.t

(** [sweep ~sizes ()] — {!latency} of a CNI board with host handlers and of
    the standard board, at each size, on Table 1's machine. *)
val sweep : sizes:int list -> unit -> point list

(** {2 Collective-operation latency} *)

type collective_point = {
  barrier_us : float;  (** average per-barrier latency *)
  allreduce_us : float;  (** average per-allreduce latency *)
  interrupts : int;  (** host interrupts taken, summed over nodes *)
}

(** [collective_latency ~kind ~nodes ~nic ()] — average latency of [reps]
    (default 8) barriers and [reps] integer allreduces over a fresh
    [nodes]-node cluster of Table 1 machines. [nic] selects the
    NIC-resident combining tree ({!Cni_mp.Collectives}) versus the
    host-driven {!Cni_mp.Mp} collectives. [topology] selects the fabric
    shape (see {!Cni_atm.Topology}); [fanout] the combining-tree arity
    (NIC-resident collectives only). *)
val collective_latency :
  ?reps:int ->
  ?topology:Cni_atm.Topology.kind ->
  ?fanout:int ->
  kind:Cni_cluster.Cluster.nic_kind ->
  nodes:int ->
  nic:bool ->
  unit ->
  collective_point

(** {2 Receive-policy behaviour at a controlled arrival rate} *)

type rx_point = {
  rx_stats : Cni_nic.Nic.stats;  (** the receiving board's counters *)
  rx_latency_us : float;  (** mean send-to-handler latency *)
}

(** [rx_policy_sweep ~policy ~gap ()] — node 0 paces [count] (default 200)
    empty frames [gap] apart at a 2-node cluster of Table 1 machines whose
    receiving application
    computes throughout, with AIH off so delivery crosses the ADC host path
    governed by [policy]. [rx_batch] (default 1) enables receive coalescing.
    Returns the receiving board's wakeup counters and the mean delivery
    latency. *)
val rx_policy_sweep :
  ?count:int ->
  ?rx_batch:int ->
  policy:Cni_nic.Nic.rx_policy ->
  gap:Cni_engine.Time.t ->
  unit ->
  rx_point

(** {2 Classifier dispatch cost (wall-clock)} *)

type classifier_point = {
  cls_patterns : int;  (** live patterns installed (one per channel) *)
  indexed_ns : float;  (** ns per {!Cni_pathfinder.Classifier.classify} *)
  linear_ns : float;
      (** ns per {!Cni_pathfinder.Classifier.classify_linear} (the
          O(patterns) reference scan) *)
  cls_speedup : float;  (** [linear_ns / indexed_ns] *)
}

(** [classifier_ops ~patterns ()] times the simulator's own classification
    step (real host time, not simulated time) with [patterns] channel
    patterns installed, probing headers spread across the installed
    channels. *)
val classifier_ops : patterns:int -> unit -> classifier_point

(** {2 AIH static-verifier throughput (wall-clock)} *)

type verifier_point = {
  vp_programs : int;  (** distinct programs in the measured mix *)
  vp_verifies_per_sec : float;
  vp_us_per_program : float;
}

(** [verifier_throughput ()] times {!Cni_aih.Aih_verify.verify} (real host
    time) over the shipped corpus — accepted and rejected programs — plus
    generated collectives firmware: what the install-time admission check
    itself costs per program. *)
val verifier_throughput : unit -> verifier_point

(** {2 Verified-firmware vs closure activation cost (simulated clock)} *)

type activation_point = {
  act_nodes : int;
  act_closure_barrier_us : float;  (** per-barrier, {!Cni_mp.Collectives} *)
  act_ir_barrier_us : float;  (** per-barrier, {!Cni_mp.Collectives_ir} *)
  act_closure_allreduce_us : float;
  act_ir_allreduce_us : float;
  act_wcet_nic_cycles : int;  (** certificate bound, rank 0's firmware *)
  act_code_bytes : int;  (** certified object size, rank 0's firmware *)
}

(** [aih_activation ~nodes ()] — the same 8 barriers and 8 integer-sum
    allreduces through the closure combining tree (flat per-dispatch
    charge) and the verified-firmware one (per-instruction charge under
    {!Cni_aih.Aih_exec}), on separate CNI clusters, with the rank-0
    certificate alongside. *)
val aih_activation : nodes:int -> unit -> activation_point

(** {2 Reliable delivery: closure layer vs streaming firmware (simulated
    clock)} *)

type reliable_point = {
  rel_nodes : int;
  rel_messages : int;  (** per node *)
  rel_closure_us : float;  (** per delivered message, closure layer *)
  rel_firmware_us : float;  (** per delivered message, firmware endpoints *)
  rel_wcet_nic_cycles : int;  (** streaming rx certificate, per activation *)
  rel_wcet_per_byte_milli : int;  (** streaming rx certificate, per byte *)
}

(** [reliable_firmware_activation ()] — the {!Reliable_flow} lockstep ring
    (2 nodes, 8 messages of 96 bytes each) through the closure reliability
    layer and the firmware-compiled {!Cni_nic.Reliable_ir} endpoints on a
    clean fabric, per delivered message, with the streaming rx certificate
    that admitted the firmware alongside. *)
val reliable_firmware_activation : unit -> reliable_point
