(** Binary min-heap on integer columns, specialised to integer-pair keys.

    Elements are ordered by [(key, seq)] lexicographically; [seq] is supplied
    by the caller to break ties deterministically (FIFO among equal keys).

    The heap keeps three [int] columns in heap order — key, seq and the
    element's {e slot} — and stores each payload once, in a slot table, at
    {!add}; a pop reads it back once. Sifting moves only integers, so no
    level of a sift runs the write barrier or the float-array check, and
    {!add} and {!pop_min_value} allocate nothing once the columns have
    grown: the calendar queue's far event codes, in an [int t], stay off
    the minor heap. The
    slot column doubles as the free list (positions past the length hold
    the free slot ids). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val add : 'a t -> key:int -> seq:int -> 'a -> unit

(** [pop_min h] removes and returns the minimum element as [(key, seq, v)].
    Allocates the result tuple; hot paths that only need the payload should
    use {!min_key} + {!pop_min_value} instead.
    @raise Not_found if the heap is empty. *)
val pop_min : 'a t -> int * int * 'a

(** [pop_min_value h] removes the minimum element and returns its payload
    only, without allocating.
    @raise Not_found if the heap is empty. *)
val pop_min_value : 'a t -> 'a

(** [min_key h] is the key of the minimum element without removing it.
    @raise Not_found if the heap is empty. *)
val min_key : 'a t -> int

(** [min_seq h] is the seq of the minimum element, as {!min_key} its key.
    @raise Not_found if the heap is empty. *)
val min_seq : 'a t -> int

val clear : 'a t -> unit
