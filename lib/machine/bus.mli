(** Memory-bus model with snooping.

    The bus is a shared resource: DMA transfers (long occupancies) serialise
    through a FIFO semaphore; individual CPU-side line write-backs are charged
    as additive occupancy without queueing (their durations are small and the
    paper's results do not hinge on CPU/DMA contention).

    Every write of host memory that crosses the bus — CPU write-backs,
    flushes, and DMA writes from the NIC — is announced to registered
    snoopers. The CNI Message Cache's snoopy interface (section 2.2) is such
    a snooper: it observes the physical address, reverse-translates it, and
    updates any cached buffer covering it. *)

type t

(** Direction of a snooped transfer, from the point of view of host memory. *)
type dir =
  | Cpu_writeback  (** dirty line leaving the cache hierarchy *)
  | Dma_to_memory  (** device writing host memory *)
  | Dma_from_memory  (** device reading host memory *)

val create : Cni_engine.Engine.t -> Params.t -> t
val params : t -> Params.t

(** [register_snooper t f] adds [f]; it is invoked synchronously for every
    bus transfer as [f ~dir ~addr ~bytes]. *)
val register_snooper : t -> (dir:dir -> addr:int -> bytes:int -> unit) -> unit

(** [writeback_line t addr] accounts for one CPU-side write-back of the
    cache line at [addr]: notifies snoopers and returns the line's bus
    occupancy to charge to the CPU's clock. Allocates nothing. *)
val writeback_line : t -> int -> Cni_engine.Time.t

(** [dma_stage t ~dir ~addr ~bytes stage slot] performs a DMA transfer,
    then runs the stage (stage, slot) inside the event that completes it
    (any event context; see {!Cni_engine.Engine.register}): it acquires the
    bus in FIFO order, holds it for the transfer time, notifies snoopers and
    releases it. [dma] is the same from inside a fiber, on the same FIFO.
    [dir] must be [Dma_to_memory] or [Dma_from_memory]. *)
val dma_stage :
  t -> dir:dir -> addr:int -> bytes:int -> Cni_engine.Engine.stage -> int -> unit

val dma : t -> dir:dir -> addr:int -> bytes:int -> unit

(** Pure transfer-time of a DMA of [bytes] (no queueing). *)
val dma_time : t -> bytes:int -> Cni_engine.Time.t

type stats = { dma_transfers : int; dma_bytes : int; writeback_lines : int }

val stats : t -> stats
