(** Reliable delivery as generated streaming AIH firmware.

    The NIC-level protocol {!Reliable} specifies — per-destination
    sequence numbers, per-frame acknowledgments, duplicate suppression
    behind an advancing floor, timer-driven retransmission with
    exponential backoff — compiled into two verified firmware programs
    per endpoint instead of interpreted by board closures:

    - a {!Cni_aih.Aih_ir.Header}-kind receive handler holding one
      [floor; bitmap] window slot per peer in its board segment, which
      acks, deduplicates and wakes the host to deliver, all from
      protocol context and all within the line-rate admission budget;
    - an [Episode]-kind transmit stamp the host drives through
      {!Nic.local_dispatch} with the sequence number the host allocated,
      which emits the data frame.

    Both go through {!Nic.install_handler_verified}, so the protocol
    itself is subject to pointer-safety, WCET and line-rate admission —
    the paper's "verify whole protocols onto the NIC". The host keeps the
    protocol's state: payloads, completion ivars, the un-acked frames in
    a {!Reliable.Sender} table made with {!Nic.sender} (the closure
    layer's numbering, retransmission and crash rule), and per-peer
    {!Reliable.Window}s, which the rx segment caches — a scrub of either
    end loses nothing.

    Intended for clusters created with [~reliability_off:true]: the
    firmware endpoints replace the closure layer rather than stack on
    top of it. The receive window tracks at most {!window} frames
    beyond the floor (the closure layer's table is unbounded); frames
    further out are dropped unacked and recovered by retransmission. *)

(** Wire channel of data/ack frames (9); the transmit stamp program
    occupies [default_channel + 1] in the classifier but never appears on
    the wire. *)
val default_channel : int

val k_data : int
val k_ack : int

(** Receive-window width in frames beyond the floor. *)
val window : int

(** The generated receive handler for an [size]-node cluster:
    [Header { view_words = Nic.header_view_words }], segment
    [2 * size] words. Exposed for the corpus, benchmarks and tests. *)
val rx_program : size:int -> Cni_aih.Aih_ir.program

(** The generated transmit stamp: [Episode], no segment; inputs: the
    destination (proven below [size]) and the sequence number. *)
val tx_program : size:int -> Cni_aih.Aih_ir.program

type 'a t

(** [install ~engine ~size ~deliver nic] verifies and installs both
    programs on [nic] (rank is the NIC's node id) and returns the
    endpoint. [deliver] is called once per fresh data frame, in arrival
    order, from the receive dispatch. Frames travel on
    {!default_channel}; timeouts, backoff and the retry budget are
    {!Reliable.default}'s. Counters register under subsystem
    "reliable-ir" with the {!Nic.rel_stats} names.

    @raise Failure when the generated firmware is rejected by the
    verifier — a shipped-firmware bug, not a caller error.
    @raise Invalid_argument on a bad [size]. *)
val install :
  engine:Cni_engine.Engine.t ->
  size:int ->
  deliver:(src:int -> seq:int -> body_bytes:int -> payload:'a -> unit) ->
  'a Nic.t ->
  'a t

(** [send t ~dst ~body_bytes ~payload] numbers the frame into the sender
    table, drives the stamp firmware and returns the ivar filled when the
    ack comes back.
    Must run in a fiber. Retransmission is automatic; when the retry
    budget is exhausted {!Reliable.Peer_dead} (destination crashed) or
    {!Reliable.Delivery_failed} surfaces through an engine fiber. *)
val send :
  'a t -> dst:int -> body_bytes:int -> payload:'a -> unit Cni_engine.Sync.Ivar.t

type stats = { retransmits : int; acks_tx : int; acks_rx : int; rx_duplicates : int }

val stats : 'a t -> stats
