(** Reliable delivery: the protocol, in one place.

    The protocol is NIC-level stop-and-wait-with-window: every outgoing
    Wire frame is stamped with a per-destination sequence number (in the
    header's aux field, which no PATHFINDER pattern inspects), the receiving
    interface acknowledges each sequenced frame on arrival and suppresses
    duplicates, and the sender retransmits on an engine timer with
    exponential backoff until acked or the retry budget is exhausted — at
    which point {!Delivery_failed} surfaces through the owning fiber instead
    of the application hanging on a lost reply.

    On the CNI and OSIRIS boards the timers, acks and duplicate filtering
    run in board firmware (NIC-processor cost model); on the standard
    interface they live in the kernel, so every retransmission, duplicate
    and ack additionally costs the host an interrupt and a kernel path.

    This module holds the protocol: the {!Sender} table (sequence
    allocation, un-acked frames, retransmit timer, crash rule) and the
    {!Receiver} verdict. The closure layer in {!Nic} and the firmware
    endpoints in {!Reliable_ir} both keep their frames in a {!Sender}
    table and supply the transmissions and their costs. *)

type config = {
  timeout : Cni_engine.Time.t;  (** initial retransmission timeout *)
  backoff : int;  (** timeout multiplier applied on every retry *)
  max_tries : int;  (** total transmissions before giving up *)
  max_rto : Cni_engine.Time.t;
      (** retransmission-timeout ceiling: backoff stops doubling here, so
          late retries against a slow peer cannot overshoot the whole run *)
}

(** 1 ms initial timeout (well above fabric round-trip plus host queueing
    under bursty traffic, so zero-loss runs rarely retransmit spuriously),
    doubling, 12 transmissions, RTO capped at 100 ms — the budget covers
    transient link-down windows of a second or more. *)
val default : config

(** Wire [kind] / [channel] of acknowledgment frames ([obj] = acked seq).
    Intercepted by the receive path before classification. *)
val ack_kind : int

val ack_channel : int

type failure = { node : int; dst : int; channel : int; seq : int; tries : int }

exception Delivery_failed of failure

(** Raised instead of {!Delivery_failed} when the retry budget runs out
    against a destination the fabric knows to be crashed: the sender learns
    its peer is dead rather than merely unreachable. A printer is
    registered. *)
exception Peer_dead of failure

(** {2 Delivery epochs}

    The Wire aux field of a sequenced frame carries
    [(epoch lsl 24) lor seq]: the low 24 bits are the per-destination
    sequence number (starting at 1, so aux is never 0 — 0 marks
    unsequenced traffic), bits 24–30 are the sender board's restart epoch.
    A receiver drops frames from an older epoch of a source than the newest
    it has seen, so retransmissions queued before a crash cannot corrupt
    the post-restart sequence space. Epoch 0 encodes to the bare sequence
    number, bit-identical to the pre-epoch wire format. *)

(** Epochs saturate here (127) rather than wrap, keeping the wire int32
    positive. *)
val max_epoch : int

(** @raise Invalid_argument if [epoch] is outside [0, max_epoch] or [seq]
    outside [1, 2^24 - 1]. *)
val aux_of : epoch:int -> seq:int -> int

(** Per-source receive window: duplicate suppression with a floor that
    advances over contiguously seen sequence numbers (senders allocate
    1, 2, 3, ... per destination). *)
module Window : sig
  type t

  val create : unit -> t

  (** Highest sequence number below which everything has been seen. *)
  val floor : t -> int

  (** Whether [seq] has been observed. *)
  val seen : t -> int -> bool

  val observe : t -> int -> [ `Fresh | `Duplicate ]
end

(** {2 Sender table}

    One endpoint's un-acked frames on one board, keyed by destination and
    the tag an ack names. The one crash rule: a frame is {e pending}, its
    timer armed, while the board is up; every frame added while the board
    is down — by the host, or by a handler still finishing when the crash
    landed — {e parks} with those {!park} moved there, and {!resume}
    re-sends them all in parking order. *)
module Sender : sig
  type 'f frame = private {
    dst : int;
    seq : int;  (** bare sequence number; stable across re-stamping *)
    stamped : bool;  (** [true] for {!post}ed frames, [false] for {!track}ed *)
    mutable tag : int;  (** the ack's key: [aux_of ~epoch ~seq], or [seq] if tracked *)
    mutable header : Bytes.t;  (** as it goes on the wire *)
    body : 'f;  (** the caller's rest of the frame *)
    mutable tries : int;
    mutable rto : Cni_engine.Time.t;  (** next retransmission timeout *)
    mutable timer : int;
        (** generation of the one timer that may act, unique in its table;
            a timer names its frame by [(dst, tag)] and this generation
            rather than holding it, so an acked frame is not kept alive
            until its timer fires *)
  }

  type 'f t

  (** An empty table on a live board at epoch 0. [transmit] sends a frame
      at {!post} and {!resume}, [retransmit] when its timer fires; both run
      in event context. [counter] registers ["retransmits"] and
      ["rto_capped"]; an exhausted budget raises {!Peer_dead} when
      [peer_down dst], {!Delivery_failed} otherwise.
      @raise Invalid_argument on an invalid [config]. *)
  val create :
    config ->
    Cni_engine.Engine.t ->
    node:int ->
    counter:(string -> Cni_engine.Stats.Counter.t) ->
    peer_down:(int -> bool) ->
    transmit:('f frame -> unit) ->
    retransmit:('f frame -> unit) ->
    'f t

  (** Allocate [dst]'s next sequence number, stamp [(epoch, seq)] into a
      copy of [header]'s aux field, and send (or park) the frame. *)
  val post : 'f t -> dst:int -> header:Bytes.t -> 'f -> unit

  (** Allocate [dst]'s next sequence number [seq] and take the frame
      [header seq] as it is, for firmware to stamp; the caller sends it.
      Its tag is [seq], and {!resume} re-sends it as is. Returns [seq]. *)
  val track : 'f t -> dst:int -> header:(int -> Bytes.t) -> 'f -> int

  val find : 'f t -> dst:int -> tag:int -> 'f frame option

  (** An ack arrived: the pending frame it names, if any, leaves the table. *)
  val settle : 'f t -> dst:int -> tag:int -> 'f frame option

  (** The board crashed: every pending frame parks, its timer dead. *)
  val park : 'f t -> unit

  (** The board restarted under [epoch]: re-stamp, re-arm and re-send every
      parked frame. *)
  val resume : 'f t -> epoch:int -> unit

  (** Frames not yet acknowledged, parked ones included. *)
  val unacked : 'f t -> int

  val retransmits : 'f t -> int
  val rto_capped : 'f t -> int
end

(** {2 Receiver verdict}

    Per-source peer epochs and duplicate windows. *)
module Receiver : sig
  type t

  (** [`Unsequenced]: aux 0. [`Stale]: an older epoch than the newest seen
      from [src] — sent before its board crashed. Otherwise the source's
      window judges the frame, after adopting a newer epoch. *)
  type verdict = [ `Unsequenced | `Fresh | `Duplicate | `Stale ]

  val create : unit -> t

  (** Judge one received frame; allocates nothing. *)
  val judge : t -> src:int -> aux:int -> verdict
end
