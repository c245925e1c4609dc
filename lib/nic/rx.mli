(** The receive wakeup engine: how the host learns of a frame delivered to
    host-resident code (CNI with [aih = false]). The paper's CNI polls a
    waiting host and interrupts a computing one (section 2.1); this
    generalises that into four policies plus receive coalescing, decided by
    pure functions. OSIRIS and standard boards keep it in interrupt mode. *)

(** Callbacks into the owning node. *)
type host = {
  host_waiting : unit -> bool;
      (** is the host application blocked on the network (polling)? *)
  steal : Cni_engine.Time.t -> unit;
      (** preempt the host CPU for this long (protocol service while the
          application computes) *)
  invalidate_range : addr:int -> bytes:int -> unit;
      (** drop host cache lines overwritten by an incoming DMA *)
  overhead : Cni_engine.Time.t -> unit;
      (** account host-side protocol overhead *)
}

(** Tuning of the adaptive policy. The board tracks the mean packet
    interarrival gap with an exponentially weighted moving average and picks
    the wakeup mode from it: poll below [ra_poll_gap], interrupt above
    [ra_interrupt_gap], the paper's hybrid in between. *)
type adaptive = {
  ra_alpha : float;
      (** EWMA weight of the newest gap, within (0, 1]; larger = faster
          reaction, smaller = smoother estimate *)
  ra_poll_gap : Cni_engine.Time.t;
      (** mean gap at or below which the board selects poll mode (traffic is
          hot; empty checks are rare) *)
  ra_interrupt_gap : Cni_engine.Time.t;
      (** mean gap at or above which the board selects interrupt mode (the
          link is idle; polling would be all waste) *)
  ra_hysteresis : float;
      (** >= 1. Leaving a mode requires the estimate to cross its threshold
          by this factor (e.g. 2.0: poll mode is left only once the mean gap
          exceeds [2 * ra_poll_gap]), so one outlier gap cannot flap the
          mode *)
}

(** [alpha = 0.25], poll below a 20 us mean gap, interrupt above 160 us,
    hysteresis 2.0. *)
val default_adaptive : adaptive

(** How the host learns of an incoming frame.

    - [Rx_interrupt]: an interrupt per wakeup, whatever the host is doing —
      the standard board's behaviour, kept as an ablation.
    - [Rx_poll]: the host checks the receive ring every 5 us; cheap per
      check, but checks that find nothing ({e wasted polls}) burn host
      cycles whenever traffic is slower than that period.
    - [Rx_hybrid]: the paper's section 2.1 policy — poll when the host is
      already waiting on the network, interrupt when it is computing.
    - [Rx_adaptive]: pick interrupt / hybrid / poll from the measured
      arrival rate (see {!adaptive}), approximating interrupt-cost
      flatness under load without paying for polling when idle. *)
type policy = Rx_interrupt | Rx_poll | Rx_hybrid | Rx_adaptive of adaptive

(** The wakeup mode in force: a fixed policy's for good; the adaptive
    policy's starts at [`Interrupt]. *)
type mode = [ `Interrupt | `Hybrid | `Poll ]

(** {2 Decisions} *)

(** The ring checks that found nothing in a gap of [gap_ps] closed by an
    arrival: [⌊gap / 5 us⌋ − 1], never negative, in poll mode; else 0. *)
val wasted_polls : mode -> gap_ps:int -> int

(** The gap estimate after one more gap, [α·gap + (1−α)·prev]; the gap
    itself when there is no estimate yet. *)
val ewma : adaptive -> float option -> gap_ps:int -> float

(** The adaptive mode under estimate [e]: poll at or below [ra_poll_gap],
    interrupt at or above [ra_interrupt_gap], hybrid between; but poll is
    left only above [ra_poll_gap × h], interrupt only below
    [ra_interrupt_gap / h] ([h = ra_hysteresis]). *)
val next_mode : adaptive -> mode -> float -> mode

(** How a wakeup reaches the host: hybrid polls exactly when it waits. *)
val wake_kind : mode -> waiting:bool -> [ `Interrupt | `Poll ]

(** {2 The engine} *)

(** A board's engine, delivering the frames of the board's record slots.
    A wakeup runs as stage events (see {!Cni_engine.Engine.register}),
    registered once per engine: no closure is built per frame until its
    handler's fiber. *)
type t

(** [take s] gives up frame slot [s] and returns the fiber body that runs
    its handler on the host; [host_proc] (the host's interrupt level) and
    [interrupts] are shared with the rest of the board; [counter]
    registers counters by name.
    @raise Invalid_argument on [batch < 1] or adaptive parameters out of range. *)
val create :
  Cni_engine.Engine.t ->
  Cni_machine.Params.t ->
  node:int ->
  host:host ->
  host_proc:Cni_engine.Sync.Semaphore.t ->
  interrupts:Cni_engine.Stats.Counter.t ->
  counter:(string -> Cni_engine.Stats.Counter.t) ->
  policy:policy ->
  batch:int ->
  take:(int -> unit -> unit) ->
  t

(** Deliver the classified frame in slot [s] to host code. The arrival first closes the
    gap since the previous one: the wasted polls of the mode then in force,
    and under the adaptive policy the estimate and the mode (a switch is
    traced as [rx-mode], payload 0/1/2 for interrupt/hybrid/poll). With
    [batch = 1] the frame pays its own wakeup and its handler starts in a
    fiber named [fabric-send]; otherwise one wakeup drains up to [batch]
    queued frames (those landing while it is charged ride free), each into
    a fiber [nic-rx-deliver] of its own, so a handler that blocks stalls
    none of the rest. The queue is the ADC receive ring, in host memory
    (see {!Nic.crash}). *)
val deliver : t -> int -> unit

(** The mode a frame arriving now would be woken with. *)
val mode : t -> mode

(** The engine's counters (documented with the board's statistics). *)
type stats = {
  polls : int; wasted_polls : int; coalesced : int; mode_switches : int;
  mode_interrupt : int; mode_hybrid : int; mode_poll : int;
}

val stats : t -> stats
