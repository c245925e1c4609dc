(** Twin/diff machinery (word-granular), the data plane of lazy release
    consistency.

    On the first write to a page in an interval the protocol copies it (the
    {e twin}); at release time the twin is compared word-by-word against the
    current contents to produce a {e diff} — a run-length list of changed
    words — which is what crosses the network instead of the whole page.

    This byte-accurate implementation backs the unit/property tests and the
    small DSM examples; the application-scale runs track dirty-word masks of
    identical sizes without materialising per-node page replicas (see
    DESIGN.md section 3). *)

type t

val word_bytes : int (** 8 *)

(** [create ~twin ~current] — runs of words that differ.
    @raise Invalid_argument if lengths differ or are not word multiples. *)
val create : twin:Bytes.t -> current:Bytes.t -> t

(** [apply t page] patches the changed runs into [page].
    @raise Invalid_argument if a run falls outside the page. *)
val apply : t -> Bytes.t -> unit

(** Number of changed words. *)
val changed_words : t -> int

(** Number of contiguous runs. *)
val runs : t -> int

val is_empty : t -> bool

(** Encoded size: 8 bytes of (offset, length) header per run plus the run
    data — the size charged on the wire. *)
val wire_bytes : t -> int

(** Wire encoding and decoding (for the round-trip property tests). *)
val encode : t -> Bytes.t

val decode : Bytes.t -> t

(** [merge older newer] — the composite diff equivalent to applying [older]
    then [newer]. *)
val merge : t -> t -> t
