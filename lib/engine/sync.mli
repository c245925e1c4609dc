(** Synchronisation primitives for simulated fibers.

    All blocking operations must run inside a fiber ({!Engine.spawn}).
    Callback forms and non-blocking operations ([fill], [release], ...) may
    be called from any event context. *)

module Ivar : sig
  (** Write-once cell. *)
  type 'a t

  val create : unit -> 'a t
  val is_filled : 'a t -> bool

  (** Blocks until the ivar is filled; returns immediately if it already is. *)
  val read : 'a t -> 'a

  (** @raise Invalid_argument if already filled. *)
  val fill : 'a t -> 'a -> unit

  (** [peek t] is [Some v] if filled. *)
  val peek : 'a t -> 'a option
end

module Semaphore : sig
  (** Counting semaphore with FIFO wakeup order.

      Waiters wait in one FIFO (an {!Engine.queue}) as stage events: a
      registered stage and its slot (see {!Engine.register}), or a fiber or
      callback waiter's closure on {!Engine.closure_stage}. A {!release}
      hands the unit to the oldest waiter and runs it in an event of its
      own at that instant. *)
  type t

  val create : int -> t

  (** The callback form of {!acquire}: runs [k] at once when the count is
      positive, else in an event of its own at the {!release} that hands
      over the unit, where a blocked fiber would resume. *)
  val acquire_then : Engine.t -> t -> (unit -> unit) -> unit

  (** [acquire_stage eng t stage slot] is the stage form: [true] when it
      took a free unit (the caller goes on inline), else [false], and the
      stage event (stage, slot) runs at the {!release} that hands the unit
      over, where {!acquire_then}'s [k] would. *)
  val acquire_stage : Engine.t -> t -> Engine.stage -> int -> bool

  (** Blocks while the count is zero; decrements. *)
  val acquire : t -> unit

  val try_acquire : t -> bool
  val release : t -> unit

  (** [hold_then eng t d k] holds one unit (acquired as by {!acquire_then})
      for [d], then runs [k]; a zero [d] runs [k] at once, leaving [t]. *)
  val hold_then : Engine.t -> t -> Time.t -> (unit -> unit) -> unit
  val available : t -> int
  val waiting : t -> int
end
