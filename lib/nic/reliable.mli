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
    sequence number, which is what an ack names. The table is host state:
    its numbering and frames outlive every board crash. The one crash rule:
    a frame is {e pending}, its timer armed, while the board is up; every
    frame added while the board is down — by the host, or by a handler
    still finishing when the crash landed — {e parks} with those {!park}
    moved there, and {!resume} re-sends them all in parking order, each
    with its original sequence number. *)
module Sender : sig
  type 'f frame = private {
    dst : int;
    seq : int;  (** per-destination sequence number, from 1 *)
    header : Bytes.t;  (** as it goes on the wire, every time *)
    body : 'f;  (** the caller's rest of the frame *)
    mutable tries : int;
    mutable rto : Cni_engine.Time.t;  (** next retransmission timeout *)
    mutable timer : int;
        (** generation of the one timer that may act, unique in its table;
            a timer names its frame by [(dst, seq)] and this generation
            rather than holding it, so an acked frame is not kept alive
            until its timer fires *)
  }

  type 'f t

  (** An empty table on a live board. [transmit] sends a frame
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

  (** Allocate [dst]'s next sequence number, write it into a copy of
      [header]'s aux field, and send (or park) the frame. *)
  val post : 'f t -> dst:int -> header:Bytes.t -> 'f -> unit

  (** Allocate [dst]'s next sequence number [seq] and take the frame
      [header seq] as it is, for firmware to stamp; the caller sends it.
      Returns [seq]. *)
  val track : 'f t -> dst:int -> header:(int -> Bytes.t) -> 'f -> int

  val find : 'f t -> dst:int -> seq:int -> 'f frame option

  (** An ack arrived: the pending frame it names, if any, leaves the table. *)
  val settle : 'f t -> dst:int -> seq:int -> 'f frame option

  (** The board crashed: every pending frame parks, its timer dead. *)
  val park : 'f t -> unit

  (** The board restarted: re-arm and re-send every parked frame as it
      was. *)
  val resume : 'f t -> unit

  (** Frames not yet acknowledged, parked ones included. *)
  val unacked : 'f t -> int

  val retransmits : 'f t -> int
  val rto_capped : 'f t -> int
end

(** {2 Receiver verdict}

    Per-source duplicate windows, host state like the sender table: they
    outlive every crash of either end, so a copy sent before a crash and a
    re-send after it are one frame. *)
module Receiver : sig
  type t

  (** [`Unsequenced]: aux 0. Otherwise aux is the frame's sequence number
      and the source's window judges it. *)
  type verdict = [ `Unsequenced | `Fresh | `Duplicate ]

  val create : unit -> t

  (** Judge one received frame; allocates nothing. *)
  val judge : t -> src:int -> aux:int -> verdict
end
