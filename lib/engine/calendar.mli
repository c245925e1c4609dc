(** Calendar queue (Brown, CACM 1988): the engine's set of future events.

    Elements are ordered by [(key, seq)] lexicographically, exactly as in
    {!Heap}: [seq] is supplied by the caller and breaks ties. Keys are
    non-negative (picoseconds in the engine).

    Keys fall into fixed-width time buckets over a window after the cursor;
    a bitmap finds the next non-empty bucket, and the cursor's bucket is
    popped as a run sorted by [(key, seq)]. Keys past the window wait in a
    {!Heap} and move into their buckets as the window reaches them; a
    bucket that collects more than a few dozen events is popped from that
    heap instead, so no burst makes an operation worse than O(log n). A
    key added at or below the cursor's bucket — possible after {!min_key}
    moved the cursor past the caller's clock — still pops first.

    An element is an int code: the engine's event, a (stage, slot) pair
    packed into one int. {!add} and {!pop_min_value} allocate nothing once
    the queue's arrays have grown to the peak number of pending events,
    and no element stores a pointer on its way through. *)

type t

val create : unit -> t
val length : t -> int

(** [add q ~key ~seq code] adds the element [code].
    @raise Invalid_argument on a negative [key]. *)
val add : t -> key:int -> seq:int -> int -> unit

(** [min_key q] is the key of the minimum element, left in place. It may
    move the cursor forward to that element's bucket.
    @raise Not_found if the queue is empty. *)
val min_key : t -> int

(** [has_key_at_most q k] is [min_key q <= k] ([false] on an empty queue),
    but moves the cursor only when [k] lies past the cursor's bucket: the
    engine asks it with [k = now] whenever the same-instant lane has
    events, and a cursor moved ahead of the clock would send the keys
    scheduled next to the slow sorted insert. *)
val has_key_at_most : t -> int -> bool

(** [pop_min_value q] removes the minimum element and returns its code.
    @raise Not_found if the queue is empty. *)
val pop_min_value : t -> int

(** The seq of the element {!pop_min_value} removed last (0 before any). *)
val last_seq : t -> int
