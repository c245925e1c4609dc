(** Two-level unified direct-mapped write-back cache model.

    Addresses are byte addresses in a flat (per-node) physical address space.
    The model is exact at cache-line granularity: tag and dirty state per set
    for both levels. An L1 victim that is dirty is written into L2 (possibly
    displacing a dirty L2 line to memory); a dirty L2 victim goes to memory
    over the bus. All memory-bound write-backs are reported to the caller so
    the bus model can account for them and the Message Cache can snoop them.

    The per-line path allocates nothing: each level is one [int array] of
    packed [line address lor dirty bit] words, indexed by shift and mask
    (the geometry must pass {!Params.validate}), allocated on first use; and
    write-backs are left in a buffer inside [t] that the caller reads with
    {!writebacks} and {!writeback} before the next operation. *)

type t

(** Where an access was satisfied. *)
type level = L1 | L2 | Memory

(** @raise Invalid_argument if the geometry fails {!Params.validate}. *)
val create : Params.t -> t

(** [access_line t ~addr ~write] simulates one load or store touching the
    cache line containing [addr] and returns its CPU cycles (the lookup
    chain plus memory latency, excluding bus occupancy of line movements).
    It leaves in the write-back buffer the at most two line-aligned addresses
    written back to memory as a consequence: under write-through the stored
    line itself, then any dirty L2 victim. *)
val access_line : t -> addr:int -> write:bool -> int

(** Where the last {!access_line} was satisfied. *)
val last_level : t -> level

(** Number of memory-bound write-backs the last {!access_line} or
    {!flush_range} left in the buffer. *)
val writebacks : t -> int

(** [writeback t i] is the [i]-th of them ([0 <= i < writebacks t]), in the
    order they reach the bus. *)
val writeback : t -> int -> int

(** [flush_range t ~addr ~bytes] writes back and invalidates every line
    intersecting [\[addr, addr+bytes)] in both levels (the pre-DMA flush a
    write-back system needs before a message transfer, section 2.2). Leaves
    the memory-bound write-backs, in address order, in the buffer and
    returns the CPU cycles spent walking the range. *)
val flush_range : t -> addr:int -> bytes:int -> int

(** [dirty_lines_in t ~addr ~bytes] counts dirty resident lines in the range
    without modifying any state. *)
val dirty_lines_in : t -> addr:int -> bytes:int -> int

(** [invalidate_range t ~addr ~bytes] drops lines without write-back (used
    when a DMA write from the NIC overwrites host memory: the stale cached
    copies must not survive). Returns the number of lines dropped. *)
val invalidate_range : t -> addr:int -> bytes:int -> int

type stats = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;
  memory_fills : int;
  writebacks : int;
}

val stats : t -> stats
val reset_stats : t -> unit
