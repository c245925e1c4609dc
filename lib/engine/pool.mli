(** Slots for pooled records.

    A pooled record is a set of arrays (its columns) owned by the caller
    and indexed by a {e slot}; a pool hands slots out and takes them back.
    When no slot is free, {!alloc} doubles the {!capacity}, and the caller
    extends its columns to match (see {!extend}) before it uses the slot.
    Capacity therefore follows the peak number of records in use, and a
    steady state allocates nothing. *)

type t

val create : unit -> t

(** A free slot, lowest first after each growth; it may lie past the
    caller's columns when the pool has just grown. *)
val alloc : t -> int

(** Give a slot back; it must be in use. *)
val release : t -> int -> unit

(** Slots the pool has: every slot is below it. *)
val capacity : t -> int

(** Slots in use. *)
val live : t -> int

(** [extend a n fill] is [a] copied into an array of length [n], the rest
    [fill]. *)
val extend : 'a array -> int -> 'a -> 'a array
