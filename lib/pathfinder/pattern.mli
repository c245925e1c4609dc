(** PATHFINDER patterns.

    A pattern is an ordered list of {e cells} (the PATHFINDER paper's term;
    here called fields to avoid clashing with ATM cells): each field compares
    [len] bytes at [offset] in the packet header, under a mask, against a
    value. A packet matches the pattern when every field matches. Patterns
    with common prefixes share structure in the classifier DAG. *)

type field = {
  offset : int;  (** byte offset into the header *)
  len : int;  (** 1..7 bytes, read big-endian *)
  mask : int;  (** applied to the read value *)
  value : int;  (** expected masked value *)
}

type t = field list

(** [field ~offset ~len ?mask value] builds one comparison; [mask] defaults
    to all-ones over [len] bytes. A field is at most 7 bytes wide, so its
    big-endian value always fits in an OCaml [int] (an 8-byte read would
    need 64 bits and lose the top bit of its first byte).
    @raise Invalid_argument if [len] is not within 1..7 or [offset] < 0. *)
val field : offset:int -> len:int -> ?mask:int -> int -> field

(** [matches t header] — reference (linear) matcher, used for testing the
    DAG classifier against. Fields whose range extends past the header fail
    to match. *)
val matches : t -> Bytes.t -> bool

(** [read_field header f] is [Some masked_value] or [None] if out of range. *)
val read_field : Bytes.t -> field -> int option

(** [read_masked header ~offset ~len ~mask] reads [len] bytes big-endian at
    [offset] and applies [mask], without needing a {!field} record. [None]
    if [len] is not within 1..7 or the range falls outside the header. *)
val read_masked : Bytes.t -> offset:int -> len:int -> mask:int -> int option

(** [read_raw] is {!read_masked} without the option: the masked value,
    which is never negative, or [-1] where {!read_masked} is [None]. This
    is the allocation-free primitive the indexed classifier uses to probe
    one field {e spec} shared by many sibling branches. *)
val read_raw : Bytes.t -> offset:int -> len:int -> mask:int -> int

(** Prints one field as [[offset:len & mask = value]]. *)
val pp_field : Format.formatter -> field -> unit

(** Prints a pattern as its space-separated fields. *)
val pp : Format.formatter -> t -> unit
