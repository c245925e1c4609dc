(** Lockstep reliable-delivery flow: parity harness between the closure
    reliability layer inside {!Cni_nic.Nic} and the firmware-compiled
    {!Cni_nic.Reliable_ir} endpoints.

    A token ring serializes the traffic — node [r] sends its [messages]
    frames to [r+1] only after receiving all of [r-1]'s, and waits for
    each frame's acknowledgment before posting the next — so exactly one
    frame is on the fabric at a time. Because {!Cni_atm.Faults} draws its
    random stream per frame in injection order, both implementations then
    face the {e same} loss/corruption/drop verdicts on the {e same} frame
    sequence, and a faithful firmware compilation must reproduce the
    closure layer's delivery outcomes and counters exactly. *)

type impl = Closure | Firmware

type config = {
  nic : Cni_cluster.Cluster.nic_kind;
  nodes : int;
  messages : int;  (** frames each node sends to its ring successor *)
  body_bytes : int;
  faults : Cni_atm.Faults.config option;
  pace : Cni_engine.Time.t option;
      (** post message [i] of node [r]'s flow no earlier than absolute
          slot [pace * (r * messages + i - 1)]. Required for parity under
          {e timed} fault schedules: the grid absorbs the speed difference
          between the two implementations so the same frame is in flight
          when a crash or link-down window opens. *)
}

(** 2-node CNI ring, 8 messages of 96 bytes, clean fabric, unpaced. *)
val default : config

(** The firmware endpoints' counters, which carry {!Cni_nic.Nic.rel_stats}'s
    names; the closure run reads its own into the same record. *)
type counters = Cni_nic.Reliable_ir.stats = {
  retransmits : int; acks_tx : int; acks_rx : int; rx_duplicates : int }

type outcome = {
  delivered : (int * int * int) list;
      (** [(receiver, src, payload)] in per-receiver arrival order,
          receivers ascending *)
  per_node : counters array;
  elapsed_ps : int;  (** wall-clock; implementation-dependent, not hashed *)
  checksum : int;
      (** over [delivered] and [per_node] — equal checksums mean equal
          protocol behaviour *)
}

(** @raise Invalid_argument on fewer than 2 nodes or 1 message. *)
val run : impl -> config -> outcome
