(** Wire header for messages on the cluster.

    This is the classifiable prefix that travels in the first ATM cell of
    every frame; PATHFINDER patterns are written against these fixed offsets.
    16 bytes:

    {v
    0-1   magic    0xC1A0
    2     kind     protocol-defined discriminator
    3     flags    bit 0: buffer is cacheable (Message Cache candidate)
                   bit 1: frame carries bulk data
    4-5   src      source node id
    6-7   channel  application device channel / AIH selector
    8-11  object   page / lock / barrier id (protocol-defined)
    12-15 aux      sequence number or protocol extra
    v} *)

val magic : int
val header_bytes : int

type t = {
  kind : int;
  cacheable : bool;
  has_data : bool;
  src : int;
  channel : int;
  obj : int;
  aux : int;
}

val encode : t -> Bytes.t

(** @raise Invalid_argument on short buffers or bad magic. *)
val decode : Bytes.t -> t

(** [None] on a short buffer or bad magic — the total form used on receive
    paths, where an undecodable frame must be dropped and counted rather
    than raise. *)
val decode_opt : Bytes.t -> t option

(** [valid b]: [decode_opt b] is [Some _]. *)
val valid : Bytes.t -> bool

(** One field of a {!valid} header, read in place: the board's per-frame
    checks read these rather than decode a record. *)
val read_kind : Bytes.t -> int

val read_channel : Bytes.t -> int
val read_obj : Bytes.t -> int
val read_aux : Bytes.t -> int

(** [with_aux b aux] is a copy of the encoded header [b] with the aux field
    (bytes 12-15) overwritten — how the reliability layer stamps a sequence
    number onto an already-built header without disturbing the offsets
    PATHFINDER patterns match (0-7). *)
val with_aux : Bytes.t -> int -> Bytes.t

(** {2 PATHFINDER pattern builders} *)

(** Matches any frame with our magic. *)
val pattern_any : Cni_pathfinder.Pattern.t

(** Matches frames for one channel. *)
val pattern_channel : channel:int -> Cni_pathfinder.Pattern.t

(** Matches frames for one channel with one kind — e.g. binding a specific
    protocol action to an Application Interrupt Handler. *)
val pattern_channel_kind : channel:int -> kind:int -> Cni_pathfinder.Pattern.t
