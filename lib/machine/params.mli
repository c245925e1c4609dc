(** Simulation parameters (paper Table 1, plus derived software costs).

    The two OCR-garbled Table 1 rows are read as link latency = 150 ns and
    interrupt latency = 40 us; see DESIGN.md section 4 for the justification
    (a 40 ns interrupt would contradict the paper's motivation, and these
    values reconstruct Figure 14's 33% microbenchmark result). *)

(** Host cache write policy. The paper evaluates write-back (the harder case
    for the Message Cache: consistency needs pre-transfer flushes); with a
    write-through cache every store crosses the bus and the snoopy interface
    sees it immediately, "trivially" keeping the board consistent
    (section 2.2). *)
type cache_policy = Write_back | Write_through

type t = {
  (* host workstation (Alpha-class) *)
  cpu_hz : int;  (** 166 MHz *)
  l1_access_cycles : int;  (** 1 cycle *)
  l1_bytes : int;  (** 32 KB unified *)
  l2_access_cycles : int;  (** 10 cycles *)
  l2_bytes : int;  (** 1 MB unified *)
  line_bytes : int;  (** cache line size (both levels) *)
  cache_policy : cache_policy;
  memory_latency_cycles : int;  (** 20 CPU cycles *)
  tlb_entries : int;
  tlb_miss_cycles : int;
  (* memory bus *)
  bus_hz : int;  (** 25 MHz *)
  bus_acquire_cycles : int;  (** 4 bus cycles *)
  bus_cycles_per_word : int;  (** 2 bus cycles per word *)
  word_bytes : int;  (** 8 (64-bit Alpha word) *)
  (* interconnect *)
  switch_latency : Cni_engine.Time.t;  (** 500 ns *)
  link_latency : Cni_engine.Time.t;  (** 150 ns *)
  link_bandwidth_bps : int;  (** 622 Mb/s (STS-12) *)
  cell_payload_bytes : int;  (** 48 (ATM); large value = Table 5's mythical
                                 unrestricted-cell-size network *)
  cell_header_bytes : int;  (** 5 *)
  switch_ports : int;  (** 32-port banyan *)
  (* network interface *)
  nic_hz : int;  (** 33 MHz *)
  message_cache_bytes : int;  (** 32 KB default *)
  nic_memory_bytes : int;  (** 1 MB on-board dual-ported memory (OSIRIS) *)
  (* OS / software costs *)
  interrupt_latency : Cni_engine.Time.t;  (** 40 us: dispatch + handler entry/exit *)
  kernel_send_cycles : int;  (** syscall + driver work per send, standard NIC *)
  kernel_recv_cycles : int;  (** per-receive kernel path, standard NIC *)
  adc_enqueue_cycles : int;  (** CNI: lock-free queue manipulation per op *)
  poll_check_cycles : int;  (** CNI: one poll of the receive queue *)
  pathfinder_cell_ns : int;  (** PATHFINDER per-cell classification time *)
  sar_cell_nic_cycles : int;  (** NIC-processor cycles per cell (SAR work) *)
  handler_dispatch_nic_cycles : int;  (** AIH activation cost on the NIC *)
  nic_hpus : int;  (** handler processing units: streaming AIH activations the
                       board can sustain concurrently (sPIN-style), so the
                       per-cell cycle budget is [nic_hpus] x one cell slot *)
  (* DSM *)
  page_bytes : int;  (** shared page size; 2 KB in Table 2 *)
}

val default : t

(** [validate p] checks the cache, TLB and page geometry the machine models
    index by shift and mask: line, L1, L2 and page sizes and the TLB entry
    count must be powers of two (a line at least 2 bytes), a page and the L1
    must each hold at least one line, and the L1 must not exceed the L2.
    Every violated rule is reported, in that order. *)
val validate : t -> (unit, string list) result

val is_pow2 : int -> bool

(** [log2 n] for a power of two [n]: the shift that divides by [n]. *)
val log2 : int -> int

(** {2 Derived durations} *)

val cpu_cycles : t -> int -> Cni_engine.Time.t
val bus_cycles : t -> int -> Cni_engine.Time.t
val nic_cycles : t -> int -> Cni_engine.Time.t

(** Bus occupancy for moving [bytes] across the memory bus
    (acquisition + 2 bus cycles per word, rounded up to whole words). *)
val bus_transfer : t -> bytes:int -> Cni_engine.Time.t

(** Wire serialisation time for [bytes] at the link bandwidth. *)
val wire_time : t -> bytes:int -> Cni_engine.Time.t

(** Number of ATM cells needed for a [bytes]-sized payload. *)
val cells_for : t -> bytes:int -> int

(** The Table 5 "mythical" unlimited-cell-size variant: a payload capacity so
    large every frame fits in one cell, so wire charging degrades to
    payload + one header instead of fixed-size cells. *)
val unrestricted_cells : t -> bool

(** NIC-processor cycles that elapse while one ATM cell (header + payload)
    serialises at the link rate — the inter-arrival budget a streaming
    handler activation must fit inside. [?link_bps] overrides the configured
    link bandwidth (e.g. to model a slower downlink). *)
val cell_slot_nic_cycles : ?link_bps:int -> t -> int

(** Per-cell admission budget for streaming firmware:
    [nic_hpus * cell_slot_nic_cycles]. A handler whose per-activation WCET
    exceeds this cannot sustain line rate and must be rejected. *)
val line_rate_budget : ?link_bps:int -> t -> int

val pp : Format.formatter -> t -> unit
