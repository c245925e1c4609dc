(** The cluster interconnect: [nodes] hosts attached to a graph of banyan
    ATM switches described by a {!Topology}.

    A packet carries real header bytes (the part PATHFINDER classifies, i.e.
    the contents of the first cell) plus an accounted body size and an
    arbitrary simulated payload. Timing per packet:

    - the source's egress link is held for the wire serialisation time of all
      its cells (53 bytes each, or unpadded for the Table 5 unrestricted-cell
      variant);
    - on the seed single-switch topology, the switch adds its traversal
      latency and each link its propagation delay — the exact seed timing
      path, bit-identical to before topologies existed. Internal banyan
      conflicts on the central switch are {e counted} (the route of every
      frame is pushed through {!Switch.route} and overlapping wire
      occupancies recorded) but {e not charged}: the paper's 500 ns switch
      latency is an end-to-end figure that already includes average
      blocking;
    - on multi-switch topologies (fat-tree, 3D torus) the frame is walked
      hop by hop with cut-through at every switch: each hop re-serialises
      on its output port, and both output-port contention and internal
      banyan wire conflicts push the frame's departure later (counted in
      [hop_waits] / [banyan_conflicts] and charged in the timing);
    - the destination's ingress port receives cut-through: reception overlaps
      the last serialisation unless the port is busy with another packet, in
      which case the packet queues (in arrival order).

    Per-cell processing cost on the NIC processors (SAR) is charged by the
    NIC models, not here.

    An optional {!Faults} model makes the fabric lossy: frames can be
    dropped whole, lose cells, arrive with [crc_ok = false] (a corrupted
    cell fails the AAL5 CRC at reassembly), or die while a link is inside a
    down window. Destination liveness is checked both when the last bit
    reaches the node and again at delivery time, so a node that crashes
    while the frame queues on its busy ingress port still loses it. Every
    fault event is counted (registry subsystem [fabric], lazily registered)
    and traced on the [atm] category. *)

type 'a packet = {
  src : int;
  dst : int;
  vci : int;
  header : Bytes.t;  (** classifiable prefix; travels in the first cell(s) *)
  body_bytes : int;  (** additional payload bytes, accounted but not materialised *)
  payload : 'a;  (** simulated content delivered to the receiver *)
  crc_ok : bool;  (** [false] when in-flight corruption will fail the AAL5
                      CRC check at the receiver; senders set [true] *)
}

type 'a t

(** [create ?topology eng p ~nodes] builds the interconnect. The default
    topology is {!Topology.Single} — the seed model.
    @raise Invalid_argument when the topology rejects the node count (see
    {!Topology.validate}) or [nodes < 1]. *)
val create :
  ?registry:Cni_engine.Stats.Registry.t ->
  ?faults:Faults.config ->
  ?topology:Topology.kind ->
  Cni_engine.Engine.t ->
  Cni_machine.Params.t ->
  nodes:int ->
  'a t

val nodes : 'a t -> int
val params : 'a t -> Cni_machine.Params.t

(** The topology the fabric was built over. *)
val topology : 'a t -> Topology.t

(** Replace the delivery callback for a node (default: drop + count). The
    callback runs inside the event that delivers the frame's last bit, and
    must not block: it schedules whatever work follows (see
    {!Cni_engine.Engine.start} for running a fiber from it). *)
val set_receiver : 'a t -> node:int -> ('a packet -> unit) -> unit

(** The active fault configuration, if any. *)
val faults : 'a t -> Faults.config option

(** Inject a packet; may be called from any event context.
    @raise Invalid_argument on out-of-range src/dst or src = dst. *)
val send : 'a t -> 'a packet -> unit

(** {2 Frame records}

    A frame in flight is one record in the fabric's pool, indexed by a
    {e slot}, from the board that posts it to the start of its handler at
    the far end: its packet and three int words. The boards' stages and
    the wire's move the slot, not a closure per stage (see
    {!Cni_engine.Engine.register}), so a frame allocates nothing between
    the two. The pool grows by doubling to the peak number of frames in
    flight on the whole fabric. The boards own the words on either side of
    the wire; from {!send_frame} to the delivery the wire uses words 0 and
    1. *)

(** [new_frame t pkt] takes a record for [pkt] and returns its slot. *)
val new_frame : 'a t -> 'a packet -> int

(** Give a record back: its frame was delivered to a handler or died. *)
val free_frame : 'a t -> int -> unit

(** Records in use: frames taken by {!new_frame} and not yet given back.
    A run that has drained its events leaves 0. *)
val frames_in_flight : 'a t -> int

val frame_packet : 'a t -> int -> 'a packet

(** [frame_word t s i] is word [i] (0, 1 or 2) of slot [s]'s record. *)
val frame_word : 'a t -> int -> int -> int

val set_frame_word : 'a t -> int -> int -> int -> unit

(** [send_frame t s] is {!send} of the record's packet: the record goes
    onto the wire, and to the receiver at the far end, or is freed where
    the frame dies (or before {!send}'s [Invalid_argument]). *)
val send_frame : 'a t -> int -> unit

(** [set_frame_receiver t ~node f] makes [f s] run in the event that
    delivers a frame's last bit to [node], as {!set_receiver}'s callback
    would, with the frame's record, which [f] then owns. *)
val set_frame_receiver : 'a t -> node:int -> (int -> unit) -> unit

(** Total frame size (header + body) in bytes. *)
val frame_bytes : 'a packet -> int

(** Number of ATM cells the packet occupies (AAL5 trailer included). *)
val packet_cells : Cni_machine.Params.t -> 'a packet -> int

(** Bytes on the wire for a [bytes]-sized frame (AAL5 trailer and per-cell
    headers included): full fixed-size cells, so a sub-cell frame still
    charges a whole 53-byte cell — except under the Table 5 unrestricted
    variant, where a frame travels unpadded in one elastic cell. The one
    formula behind {!wire_bytes} and {!min_latency}. *)
val frame_wire_bytes : Cni_machine.Params.t -> bytes:int -> int

(** Bytes on the wire including per-cell headers and padding. *)
val wire_bytes : Cni_machine.Params.t -> 'a packet -> int

(** Uncontended last-bit network delay for a frame of [bytes] across the
    seed single switch: serialisation + switch latency + two link
    propagations. *)
val min_latency : Cni_machine.Params.t -> bytes:int -> Cni_engine.Time.t

(** Uncontended last-bit network delay for a frame of [bytes] from [src] to
    [dst] on this fabric's topology: serialisation + (switch latency per
    hop) + (link propagation per link, one more than hops). Equals
    {!min_latency} on the single switch.
    @raise Invalid_argument on out-of-range or equal endpoints. *)
val path_latency :
  'a t -> src:int -> dst:int -> bytes:int -> Cni_engine.Time.t

(** Load accounting, split by where frames die.

    [offered_*] count every {!send} call; [packets]/[cells]/[wire_bytes]
    count what actually made it onto the wire (excluding frames a crashed or
    link-down {e source} never transmitted, but including frames lost
    mid-flight); [delivered_*] count what reached the destination node.
    In a fault-free run all three agree. [dropped] counts undeliverable
    frames (no receiver installed), as before. *)
type stats = {
  packets : int;  (** frames that got onto the wire *)
  cells : int;
  wire_bytes : int;
  dropped : int;  (** delivered with no receiver installed *)
  offered_packets : int;  (** every [send] call *)
  offered_cells : int;
  offered_wire_bytes : int;
  delivered_packets : int;  (** frames handed to the destination node *)
  delivered_cells : int;
  delivered_wire_bytes : int;
  hop_waits : int;
      (** hops (multi-switch only) where contention delayed the frame *)
  banyan_conflicts : int;
      (** internal banyan wire overlaps; counted on every topology, charged
          only on multi-switch ones *)
}

val stats : 'a t -> stats

(** Packets addressed to [node] that arrived with no receiver installed
    (also counted per node as [node<N>/fabric/undeliverable] and traced with
    src/dst/vci). *)
val undeliverable : 'a t -> node:int -> int

(** Frames sourced at [node] that injected faults destroyed (whole-frame
    drops + frames losing cells + link-down discards on either end). Crash
    discards are counted separately — see {!crash_drops}. *)
val fault_drops : 'a t -> node:int -> int

(** {2 Node liveness}

    A down node loses every frame it would send (at injection time) or
    receive (checked when the last bit arrives at its ingress port {e and}
    again at delivery time, closing the window where a node crashing while
    the frame queued on its busy ingress port would still have received
    it). Set by [Cluster] when a node crashes or restarts. The fault
    verdict is still drawn for frames sourced at a down node, so the fault
    RNG stream is unchanged by crashes. *)

(** @raise Invalid_argument on an out-of-range node. *)
val set_node_down : 'a t -> node:int -> bool -> unit

(** @raise Invalid_argument on an out-of-range node. *)
val node_down : 'a t -> node:int -> bool

(** Frames counted at [node] that died because a crashed node was at either
    end ([node<N>/fabric/crash_drops]); not part of {!fault_drops}. *)
val crash_drops : 'a t -> node:int -> int
