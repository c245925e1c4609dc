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

    An element carries a payload ({!add}) or an int code in its place
    ({!add_code}): the engine's closure events and its stage events, in one
    order. {!add}, {!add_code} and {!pop_min_value} allocate nothing once
    the queue's arrays have grown to the peak number of pending events,
    and a code element stores no pointer on its way through. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

(** @raise Invalid_argument on a negative [key]. *)
val add : 'a t -> key:int -> seq:int -> 'a -> unit

(** [add_code q ~key ~seq code] adds an element carrying the int [code]
    (>= 0) in place of a payload. A code element past the window or in a
    dense bucket waits in the far heap as its ints too.
    @raise Invalid_argument on a negative [key] or [code]. *)
val add_code : 'a t -> key:int -> seq:int -> int -> unit

(** [min_key q] is the key of the minimum element, left in place. It may
    move the cursor forward to that element's bucket.
    @raise Not_found if the queue is empty. *)
val min_key : 'a t -> int

(** [has_key_at_most q k] is [min_key q <= k] ([false] on an empty queue),
    but moves the cursor only when [k] lies past the cursor's bucket: the
    engine asks it with [k = now] whenever the same-instant lane has
    events, and a cursor moved ahead of the clock would send the keys
    scheduled next to the slow sorted insert. *)
val has_key_at_most : 'a t -> int -> bool

(** [pop_min_value q] removes the minimum element and returns its payload,
    or a placeholder that must not be used for a code element.
    @raise Not_found if the queue is empty. *)
val pop_min_value : 'a t -> 'a

(** The seq of the element {!pop_min_value} removed last (0 before any). *)
val last_seq : 'a t -> int

(** The code of the element {!pop_min_value} removed last: -1 for a payload
    element. *)
val last_code : 'a t -> int
