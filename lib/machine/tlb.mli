(** Direct-mapped TLB model.

    The same structure serves three roles in the system: the host CPU TLB,
    and the CNI board's TLB / RTLB pair that translate between host virtual
    and physical addresses for virtually-addressed DMA (section 2.2). Only
    timing and hit/miss behaviour are modelled; the actual translation is an
    identity in our flat per-node address space, so the interesting output is
    the cycle cost. *)

type t

(** [entries] and [page_bytes] must be powers of two: a lookup shifts the
    address to its page number and masks that to a slot.
    @raise Invalid_argument otherwise. *)
val create : entries:int -> miss_cycles:int -> page_bytes:int -> t

(** [lookup t ~addr] returns the cycle cost of translating [addr]
    (0 on a hit, [miss_cycles] on a miss, which also installs the entry). *)
val lookup : t -> addr:int -> int

val flush : t -> unit

type stats = { lookups : int; misses : int }

val stats : t -> stats
