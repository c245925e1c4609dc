(** Install-time static verification of AIH firmware.

    [verify] decides whether an {!Aih_ir.program} may be admitted onto the
    board, without running it. The proof obligations mirror the paper's
    admission contract for handlers ("pointer-safe, relocatable object
    code", section 2.3) plus the bound a shared protocol processor needs:

    - {b Pointer safety} — abstract interpretation over an interval domain
      proves every [Load]/[Store] address lies inside the handler's own
      board segment, whatever values the (untrusted) activation inputs
      take. A handler that could dereference a host address or write
      another handler's segment is rejected, not sandboxed.
    - {b Relocatability} — the relocation table must name in-range [Const]
      instructions whose immediates are in-segment word addresses; nothing
      else may be rebased.
    - {b Definite initialization} — no instruction may read a register
      that some path leaves unwritten.
    - {b Termination and cycle bound} — back edges are admitted only when
      they target an {!Aih_ir.instr} [Loop] header, loop regions must nest
      properly, may not be jumped into, and may not write their own
      counter, so every activation executes at most [wcet_nic_cycles]
      cycles — the certificate the NIC can schedule against.

    Division and shift get the same treatment: a possibly-zero divisor or
    an out-of-range shift count is an install-time rejection, never a board
    fault. *)

(** A closed integer interval (the abstract value of an initialized
    register). *)
type interval = { lo : int; hi : int }

(** Why a program was rejected. Constructors carry the offending register,
    target or address range. *)
type reason =
  | Program_empty
  | Program_too_long of int
  | Bad_segment of int  (** [seg_words] outside [0 .. 65536] *)
  | Bad_inputs of int  (** declared input count outside [0 .. nregs] *)
  | Bad_register of Aih_ir.reg
  | Bad_branch_target of int
  | Falls_off_end
  | Bad_relocation of int  (** the relocation entry (a pc) that is invalid *)
  | Immediate_too_wide of int
  | Unbounded_back_edge of int  (** back edge to a non-[Loop] target *)
  | Improper_loop_nesting of int  (** header of the region that overlaps another *)
  | Jump_into_loop of int  (** target inside a loop region entered sideways *)
  | Loop_bound_invalid of int  (** static limit outside [1 .. 65535] *)
  | Loop_counter_clobbered of Aih_ir.reg  (** body writes the loop counter *)
  | Loop_counter_negative of Aih_ir.reg  (** counter may enter below zero *)
  | Uninitialized_register of Aih_ir.reg
  | Load_out_of_segment of interval  (** possible address range of the load *)
  | Store_out_of_segment of interval  (** possible address range of the store *)
  | Division_by_zero  (** divisor interval contains zero *)
  | Shift_out_of_range  (** shift count may leave [0 .. 62] *)
  | Wcet_exceeded of int  (** the computed bound, above 200_000 cycles *)
  | Bad_stream_decl of int
      (** a streaming declaration is out of range: view/chunk words outside
          [1 .. 16], max chunks outside [1 .. 65535], scratch outside
          [0 .. 65536], or a payload handler with fewer than 2 inputs *)
  | View_out_of_bounds of interval  (** [Ldv] may read past the declared view *)
  | Scratch_out_of_bounds of interval  (** [Lds]/[Sts] may leave the scratch segment *)
  | Line_rate_exceeded of { budget : int; wcet : int }
      (** the streaming activation bound misses the per-cell cycle budget at
          the configured link rate; the margin is [wcet - budget] *)

(** The structured diagnostic: where verification failed, why, and the
    abstract register state at that pc ([rj_regs] renders each register as
    an interval, [T] for unconstrained, [?] for possibly-uninitialized). *)
type reject = { rj_pc : int; rj_reason : reason; rj_regs : string }

(** The certificate an accepted program installs under: its honest object
    size ({!Aih_ir.code_bytes}), the worst-case NIC cycles any single
    activation can cost, and — for streaming handlers — the worst-case cost
    per wire byte in milli-cycles ([ceil (1000 * wcet / bytes)] over
    {!Aih_ir.bytes_per_activation}; 0 for episode handlers, which have no
    per-packet obligation). The per-byte bound is what line-rate admission
    compares against the link. *)
type cert = { code_bytes : int; wcet_nic_cycles : int; wcet_per_byte_milli : int }

(** Stable kebab-case tag for a rejection class (corpus tests match on
    it), e.g. ["out-of-segment-store"]. *)
val reason_name : reason -> string

val pp_reason : Format.formatter -> reason -> unit

(** One-line rendering of a {!reject} (pc, reason, abstract state). *)
val explain : reject -> string

(** All rejections on one line, ["; "]-separated. *)
val explain_all : reject list -> string

(** [verify ?cell_budget p] returns the certificate or every independent
    rejection found (program order; structural violations are all
    collected before the loop/interpretation phases run, which need a
    well-formed program). A WCET above 200_000 NIC cycles (~6 ms of 33 MHz
    board time) is rejected with {!Wcet_exceeded}: no activation may
    monopolize the protocol processor that long. [cell_budget] — NIC cycles available per streaming
    activation at line rate, typically [Params.line_rate_budget] — enables
    admission control: a header/payload handler whose WCET exceeds it is
    rejected with {!Line_rate_exceeded}. Episode handlers ignore
    [cell_budget]. *)
val verify : ?cell_budget:int -> Aih_ir.program -> (cert, reject list) result
