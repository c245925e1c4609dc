(** The Message Cache (paper section 2.2).

    A set of page-sized cached buffers in the adaptor's memory, each bound to
    a host virtual-memory page through the buffer map. A buffer stays
    consistent with host memory because the snoopy interface observes every
    write that crosses the memory bus (CPU write-backs and flushes, and DMA
    writes) and — in the paper's design — updates the buffer in place
    (write-update). The [`Invalidate] mode is our ablation: snooped writes
    drop the binding instead.

    Replacement is the paper's "approximate LRU", implemented as a clock
    (second-chance) algorithm over the buffer slots. *)

type mode = Update | Invalidate

type t

(** When [registry] is given, statistics are registered as
    [node<N>/message-cache/<metric>] counters; otherwise standalone.

    [phys_to_vpage] is the snooper's RTLB (reverse TLB): it maps the
    {e physical} address of a bus write to the {e virtual} page number the
    buffer map is keyed by. The default is the identity mapping
    (physical address / page size), which is only correct while host buffers
    are identity-mapped — the configuration every current client uses. A
    system with real virtual memory must supply the translation, or snooped
    writes would update/invalidate the wrong binding.
    @raise Invalid_argument unless [page_bytes] is a power of two. *)
val create :
  ?registry:Cni_engine.Stats.Registry.t ->
  ?node:int ->
  ?phys_to_vpage:(int -> int) ->
  page_bytes:int ->
  capacity_bytes:int ->
  mode:mode ->
  unit ->
  t

val capacity_pages : t -> int
val mode : t -> mode

(** [lookup t ~vpage] — transmit-path probe: returns whether a valid buffer
    is bound to the page, counts a hit or a miss, and refreshes the clock
    reference bit on a hit. *)
val lookup : t -> vpage:int -> bool

(** [contains t ~vpage] — probe without statistics or reference-bit side
    effects. *)
val contains : t -> vpage:int -> bool

(** [bind t ~vpage] creates (or refreshes) a binding, evicting the clock
    victim if the buffer pool is full. Used by transmit caching after a
    miss-DMA of a cacheable buffer and by receive caching for migratory
    pages. *)
val bind : t -> vpage:int -> unit

(** [snoop t ~addr ~bytes] — the snoopy interface: a range of host memory was
    written over the bus. [addr] is a {e physical} address; each covered page
    is translated through [phys_to_vpage] before the buffer map is consulted.
    In [Update] mode a covered binding absorbs the write (stays valid); in
    [Invalidate] mode it is dropped. *)
val snoop : t -> addr:int -> bytes:int -> unit

(** Drop a binding if present (e.g. the host reuses the page for something
    else). *)
val unbind : t -> vpage:int -> unit

(** Drop every binding (a scrub wipes board memory); statistics stay. *)
val clear : t -> unit

type stats = {
  hits : int;
  misses : int;
  binds : int;
  evictions : int;
  snoop_updates : int;
  snoop_invalidates : int;
}

(** The pages currently bound, as recorded in the slot array (sorted). The
    buffer map must always agree with this; tests rely on the invariant. *)
val bound_pages : t -> int list

val stats : t -> stats
val reset_stats : t -> unit

(** Transmit hit ratio in percent (the paper's "network cache hit ratio");
    0. when there were no lookups — an idle node must not inflate aggregate
    ratios. *)
val hit_ratio : t -> float

(** [None] when there were no lookups; use this to exclude idle nodes from
    averages. *)
val hit_ratio_opt : t -> float option
