(** Network interface models.

    Three interfaces share one API and one constructor, {!create}, whose
    [~kind] (see {!kind}) picks the board:

    - {b CNI} (the paper's design): Application Device Channels (no kernel on
      the send/receive path), the PATHFINDER classifier feeding Application
      Interrupt Handlers that run protocol code on the 33 MHz NIC processor,
      a Message Cache that elides host-memory DMA on transmit hits and binds
      migratory pages on receive, and a polling/interrupt hybrid towards the
      host.
    - {b Standard} (the paper's baseline): kernel-mediated sends and
      receives, an interrupt per incoming packet, a DMA across the memory bus
      for every data transfer, protocol processing on the host CPU (stealing
      host time when the application is computing).
    - {b OSIRIS} (the base board CNI extends): user-level ADC sends, but
      software demultiplexing and interrupt-only receives, no Message Cache,
      no AIH — the intermediate design point.

    Time accounting: host-side costs are charged with [Engine.delay] in the
    calling fiber and reported through [host.overhead]; a frame's NIC-side
    costs are charged at the NIC clock by the board's stage events on the
    frame's record (see {!Cni_atm.Fabric.new_frame}), up to the fiber that
    runs its handler; bus transfers go through the shared
    {!Cni_machine.Bus} (whose snooper feeds the Message Cache). *)

(** Bulk data attached to a message. [vaddr] is the host virtual address of
    the source (transmit) or destination (deliver) buffer; [cacheable] is the
    header bit that asks the Message Cache to retain a binding. *)
type data = No_data | Page of { vaddr : int; bytes : int; cacheable : bool }

(** Callbacks into the owning node (see {!Rx.host}). *)
type host = Rx.host = {
  host_waiting : unit -> bool; steal : Cni_engine.Time.t -> unit;
  invalidate_range : addr:int -> bytes:int -> unit; overhead : Cni_engine.Time.t -> unit;
}

(** Context handed to the protocol handler for an incoming packet. *)
type 'a ctx = {
  ctx_node : int;
  charge : int -> unit;
      (** run [n] protocol instructions (NIC clock under AIH, host clock on
          the standard path) *)
  reply : dst:int -> header:Bytes.t -> body_bytes:int -> data:data -> payload:'a -> unit;
      (** send a message from protocol context (no host send cost under AIH) *)
  deliver_page : vaddr:int -> bytes:int -> cacheable:bool -> unit;
      (** DMA incoming bulk data into host memory at [vaddr]; performs
          receive caching when [cacheable] *)
}

type 'a t

(** The receive engine's types; {!Rx} documents the wakeup policies. *)
type rx_adaptive = Rx.adaptive = {
  ra_alpha : float; ra_poll_gap : Cni_engine.Time.t;
  ra_interrupt_gap : Cni_engine.Time.t; ra_hysteresis : float;
}

val default_rx_adaptive : rx_adaptive

type rx_policy = Rx.policy = Rx_interrupt | Rx_poll | Rx_hybrid | Rx_adaptive of rx_adaptive
type rx_mode = Rx.mode

type cni_options = {
  mc_bytes : int;  (** Message Cache capacity; 0 disables it *)
  mc_mode : Message_cache.mode;
  aih : bool;  (** run protocol handlers on the NIC; [false] = host handlers
                   woken per {!rx_policy} (ablation) *)
  rx_policy : rx_policy;
      (** receive wakeup policy for host-resident handlers; default
          [Rx_hybrid] (the paper's design) *)
  rx_batch : int;
      (** receive coalescing: the frames one host wakeup drains (see
          {!Rx.deliver}); 1 (default) = one wakeup per frame *)
}

(** AIH on, full-size Message Cache in update mode, [Rx_hybrid] with no
    coalescing — the paper's CNI. *)
val default_cni_options : cni_options

(** Which board a node carries: the paper's CNI, the OSIRIS base board it
    extends (section 2.1: Application Device Channels at user level, but
    software demultiplexing on the board — 120 NIC cycles a packet — and an
    interrupt per packet towards the host; no Message Cache, no AIH), or
    the standard interface. *)
type kind = [ `Cni of cni_options | `Osiris | `Standard ]

(** [create ~kind eng bus fabric ~node ~host] builds the interface of board
    [node] and attaches it to the fabric as that node's receiver.

    With a metrics [registry], the interface registers its counters as
    [node<N>/nic/<metric>], its transmit descriptor queue as
    [node<N>/ring/<metric>], and the Message Cache (CNI) as
    [node<N>/message-cache/<metric>].

    [reliability] enables end-to-end reliable delivery (see {!Reliable}):
    every Wire frame sent through this interface is sequenced, acknowledged
    by the receiving interface, retransmitted on timeout with exponential
    backoff and deduplicated on receive. On the CNI and OSIRIS boards this
    runs in board firmware; on the standard interface every ack,
    retransmission and duplicate costs the host an interrupt + kernel path.
    With [reliability] absent the interface behaves exactly as before —
    the zero-loss fast path carries no cost.

    @raise Invalid_argument on inconsistent {!cni_options} (see
    {!Rx.create}). *)
val create :
  ?registry:Cni_engine.Stats.Registry.t ->
  ?reliability:Reliable.config ->
  kind:kind ->
  Cni_engine.Engine.t ->
  Cni_machine.Bus.t ->
  'a Cni_atm.Fabric.t ->
  node:int ->
  host:host ->
  'a t

val node : 'a t -> int

(** The machine parameter set the interface was built with (board clock,
    page size, path costs). *)
val params : 'a t -> Cni_machine.Params.t

val is_cni : 'a t -> bool

(** [true] when protocol handlers execute on the NIC processor (CNI with
    AIH); [false] for the standard interface and the host-handler ablation. *)
val aih_enabled : 'a t -> bool

(** An installation in the host's install table: valid across any number
    of scrubs, until {!uninstall_handler}. *)
type handle

(** [install_handler t ~pattern ~code_bytes f] — the paper's AIH
    installation: the connection-opening application supplies a PATHFINDER
    pattern and the location/size of relocatable protocol object code; the
    board swaps the code into a free segment of its memory and programs the
    classifier to activate it on a match (section 2.3). Incoming packets are
    classified against the real {!Cni_pathfinder.Classifier} DAG. On the
    standard interface the same registration is kept, but the "handler" runs
    on the host CPU behind an interrupt, after the kernel's software demux.

    @raise Failure if the board's free memory cannot hold [code_bytes]
    (handlers are whole-segment resident; there is no paging on the board).
    @raise Invalid_argument if [code_bytes] is zero or negative — a handler
    with no object code cannot occupy a board segment. *)
val install_handler :
  'a t ->
  pattern:Cni_pathfinder.Pattern.t ->
  ?code_bytes:int ->
  ('a ctx -> 'a Cni_atm.Fabric.packet -> unit) ->
  handle

(** Deprogram the classifier pattern and free the handler's board memory
    segment for later installations. Uninstalling twice is a no-op. *)
val uninstall_handler : 'a t -> handle -> unit

(** Fallback for packets no pattern matches (default: count and drop). *)
val set_default_handler : 'a t -> ('a ctx -> 'a Cni_atm.Fabric.packet -> unit) -> unit

(** Bytes of board memory currently holding AIH object code. *)
val handler_code_bytes : 'a t -> int

(** A handler admitted through the static verifier: its installation
    (for {!uninstall_handler}), the admission certificate, the per-cell
    cycle budget it was admitted against, and the activation entry point
    the host side of a protocol may drive through {!local_dispatch}
    ([vh_activate ctx inputs] runs the firmware on the segment the board
    holds — a fresh one, kept by nothing, while a scrub has left none —
    with registers [0..inputs-1] preloaded; [?view] supplies the [Ldv]
    window for streaming programs). *)
type 'a verified_handler = {
  vh_handle : handle;
  vh_cert : Cni_aih.Aih_verify.cert;
  vh_budget : int;
  vh_activate : ?view:int array -> 'a ctx -> int array -> unit;
}

(** Words in the canonical first-cell view a [Header]-kind handler is
    activated with: [kind; src; channel; obj; aux; body_bytes]. *)
val header_view_words : int

(** [install_handler_verified t ~pattern ~program ~entry ~on_send ~on_wake]
    is the paper's full AIH admission path: the board accepts only
    {e pointer-safe, relocatable object code}, established here by
    {!Cni_aih.Aih_verify.verify} before anything touches the classifier. On
    [Ok] the program's encoded image plus its declared board segment —
    [cert.code_bytes], not a caller-supplied guess — is debited from board
    memory and every activation interprets the firmware under
    {!Cni_aih.Aih_exec.run}, charging the cycles it actually executes;
    [entry] extracts the firmware's input registers from a matched packet,
    and [on_send]/[on_wake] give the [send]/[host_wakeup] instructions their
    wire and host meanings. On [Error] nothing is installed, the rejection
    is counted (see {!aih_verify_rejects}), and the structured diagnostics
    are returned (every independent violation, not just the first).

    Streaming programs are additionally held to line-rate admission: the
    per-activation WCET must fit [Params.line_rate_budget] at the board's
    link rate ([?link_bps] overrides it, e.g. to admit a heavy handler on a
    slower downlink), or the install fails with [Line_rate_exceeded].
    Dispatch then activates a [Header] program once per matched packet with
    the first-cell view, and a [Payload] program once per chunk of the
    reassembled body — each activation charging the cycles it executes, so
    cost scales per cell.

    [init] fills each fresh (zeroed) segment: at install, and when a
    restart reloads the firmware after a scrub.

    @raise Failure if the program verifies but the board's free memory
    cannot hold its certified [code_bytes]. *)
val install_handler_verified :
  ?link_bps:int ->
  ?init:(int array -> unit) ->
  'a t ->
  pattern:Cni_pathfinder.Pattern.t ->
  program:Cni_aih.Aih_ir.program ->
  entry:('a Cni_atm.Fabric.packet -> int array) ->
  on_send:('a ctx -> dst:int -> kind:int -> obj:int -> value:int -> unit) ->
  on_wake:(seq:int -> value:int -> unit) ->
  ('a verified_handler, Cni_aih.Aih_verify.reject list) result

(** Firmware programs this board has refused to install. *)
val aih_verify_rejects : 'a t -> int

(** [send t ~dst ~header ~body_bytes ~data ~payload] transmits from the host
    application / protocol client. Must run in a fiber; charges the host-side
    send cost there, then completes asynchronously through the NIC. For
    [Page] data the caller must already have flushed the host cache range
    (the DSM layer flushes at release points; see Cache.flush_range). *)
val send :
  'a t -> dst:int -> header:Bytes.t -> body_bytes:int -> data:data -> payload:'a -> unit

(** [local_dispatch t f] runs a protocol step that the {e host} initiates —
    e.g. the local-arrival step of a NIC-resident collective — in the
    interface's protocol context. The calling fiber pays the descriptor-post
    cost (ADC enqueue on CNI/OSIRIS, kernel entry on the standard board).
    Under AIH the step itself then executes asynchronously on the NIC
    processor ([ctx.charge] at NIC cycles, [ctx.reply] free of host cost);
    on every other interface it executes synchronously on the host CPU in
    the calling fiber, charged as protocol overhead. No interrupt is taken
    either way: the host initiated the action. Must run in a fiber. *)
val local_dispatch : 'a t -> ('a ctx -> unit) -> unit

(** The Message Cache, when configured (CNI with [mc_bytes > 0]). *)
val message_cache : 'a t -> Message_cache.t option

(** The paper's "network cache hit ratio" (percent; 0 with no traffic);
    meaningful for CNI only. *)
val network_cache_hit_ratio : 'a t -> float

(** [None] when there is no Message Cache or it saw no lookups; use to
    exclude idle nodes from cluster-wide averages. *)
val network_cache_hit_ratio_opt : 'a t -> float option

(** The metrics registry handed to the constructor, if any. *)
val registry : 'a t -> Cni_engine.Stats.Registry.t option

type stats = {
  tx_packets : int;  (** frames handed to the wire *)
  tx_data_packets : int;  (** of which carried bulk [Page] data *)
  tx_dma_bytes : int;  (** host-memory DMA on transmit (Message Cache misses) *)
  rx_packets : int;  (** frames reassembled off the wire *)
  rx_dma_bytes : int;  (** bulk data DMAed into host memory on receive *)
  interrupts : int;  (** host interrupts taken for receive wakeups *)
  polls : int;  (** receive wakeups delivered to a polling host check *)
  wasted_polls : int;
      (** ring checks that found nothing, while in poll mode; the cost
          polling pays when traffic is slower than the 5 us poll period *)
  coalesced : int;
      (** frames delivered by a wakeup they did not pay for ([rx_batch] >
          1): total frames minus wakeups on the batched path *)
  mode_switches : int;  (** adaptive policy mode transitions *)
  mode_interrupt : int;  (** wakeups charged while in interrupt mode *)
  mode_hybrid : int;  (** wakeups charged while in hybrid mode *)
  mode_poll : int;  (** wakeups charged while in poll mode *)
  unmatched : int;  (** frames no classifier pattern matched *)
}

(** Lifetime traffic/wakeup counters for this interface. *)
val stats : 'a t -> stats

(** The receive wakeup mode a frame arriving now would be delivered with:
    {!Rx.mode}, always [`Interrupt] on OSIRIS and standard boards. *)
val rx_mode : 'a t -> rx_mode

type rel_stats = {
  retransmits : int;  (** timer-driven re-sends of unacked frames *)
  acks_tx : int;  (** acknowledgments generated (one per sequenced frame seen) *)
  acks_rx : int;  (** acknowledgments received *)
  rx_duplicates : int;  (** sequenced frames suppressed by the receive window *)
  tx_unacked : int;
      (** frames still awaiting an ack, parked ones included (0 after a
          clean run) *)
  rto_capped : int;  (** retransmission arms clamped at [config.max_rto] *)
}

(** [None] when the interface was built without [reliability]. *)
val rel_stats : 'a t -> rel_stats option

(** Sequenced frames not yet acknowledged, parked ones included (0 with
    reliability off). A sender can poll this to serialise on delivery
    without inventing an application-level ack. *)
val rel_pending_count : 'a t -> int

(** Frames dropped on receive because the header failed {!Wire.decode_opt}
    (counted as [node<N>/nic/rx_undecodable] when a registry is attached). *)
val rx_undecodable : 'a t -> int

(** Frames dropped on receive because reassembly flagged an AAL5 CRC
    mismatch (fault-injected corruption); [node<N>/nic/rx_crc_errors]. *)
val rx_crc_errors : 'a t -> int

(** {2 Crash / restart}

    A board can {!crash} — its timers die; frames reaching it, or still in
    reassembly when the crash lands, are dropped ([crash_rx_drops]) — and
    later {!restart} ([crashes], [restarts]). Board memory is the
    classifier with the handlers loaded in it, their code bytes and
    segments, and the Message Cache's bindings: a crash with [scrub = true]
    wipes it, and {!restart} rebuilds it from the install table in install
    order, re-verifying firmware ([restart_reverified] /
    [restart_reverify_rejects]). Everything else is host state and survives
    every crash, the install table and its {!handle}s included.

    Delivery stays exactly-once because the sequence numbers and the
    receive windows are host state: a frame the board acked reaches the
    handler it was classified to at admission; sequenced frames not yet
    acked, or posted while the board is down, park in their {!sender}
    tables until {!restart} re-sends them with their original sequence
    numbers; and the receive windows take whichever copy of a frame lands
    first and call every later one a duplicate, whether it was sent before
    the crash or after the restart. [crash_tx_drops] counts an unsequenced
    frame posted to a dead board, and a transmission the crash caught in
    the board's queue (its sequenced original parked). *)

(** Crash the board; no-op if already dead. [Cluster] pairs this with
    marking the node down on the fabric. *)
val crash : 'a t -> scrub:bool -> unit

(** Restart a crashed board; no-op if alive. Re-sends every parked frame
    of every sender table, and rebuilds board memory from the install table
    if the crash scrubbed it. *)
val restart : 'a t -> unit

(** A {!Reliable.Sender} table under this board's crash rule ({!crash}
    parks it, {!restart} resumes it), raising [Peer_dead] when the fabric
    reports the destination down. The closure layer's table is one; the
    firmware endpoints ({!Reliable_ir}) make another. *)
val sender :
  'a t ->
  Reliable.config ->
  counter:(string -> Cni_engine.Stats.Counter.t) ->
  transmit:('f Reliable.Sender.frame -> unit) ->
  retransmit:('f Reliable.Sender.frame -> unit) ->
  'f Reliable.Sender.t

(** Per-restart recovery latencies, oldest first: the time from each
    {!restart} to the first frame the revived board received. A restart
    that never saw traffic again contributes nothing. *)
val recovery_latencies : 'a t -> Cni_engine.Time.t list
