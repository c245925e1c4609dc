(** The AIH firmware instruction set.

    The paper admits Application Interrupt Handlers onto the board only as
    "pointer-safe, relocatable object code" (section 2.3). This module is
    that object code's shape for our simulated board: a small register
    machine whose only memory is the handler's private segment of board
    memory, whose only effects are [send] (emit a frame from protocol
    context), [wake] (fill the host's episode ivar) and segment stores, and
    whose loops must go through an explicitly bounded header.

    A {!program} is what {!Aih_verify.verify} certifies and
    {!Aih_exec.run} executes; {!encode} is the relocatable object-code
    image whose length — plus the declared data segment — is the program's
    honest [code_bytes], the number board-memory accounting charges at
    install time. *)

(** Register index, [0 .. nregs - 1]. *)
type reg = int

(** The machine has 16 integer registers. At activation registers
    [0 .. inputs - 1] carry the event's arguments (untrusted: the verifier
    assumes nothing about their values); the rest start uninitialized. *)
val nregs : int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Word addresses are {e segment-relative}: [Load (rd, rs, off)] reads
    word [rs + off] of the handler's own board segment. There is no
    instruction that can name host memory or another handler's segment —
    pointer safety is then the verifier's proof that [rs + off] stays
    inside [0 .. seg_words - 1].

    [Loop { counter; limit; exit }] is the only legal back-edge target: it
    tests [counter >= limit] (exit to [exit]) and otherwise increments
    [counter] and falls through, so a loop whose counter provably enters
    non-negative executes its body at most [limit] times per entry. *)
type instr =
  | Const of reg * int  (** load immediate (relocatable when listed in [relocs]) *)
  | Mov of reg * reg
  | Bin of binop * reg * reg * reg  (** [rd <- rs op rt] *)
  | Bini of binop * reg * reg * int  (** [rd <- rs op imm] *)
  | Load of reg * reg * int  (** [rd <- seg.(rs + off)] *)
  | Store of reg * reg * int  (** [seg.(rs + off) <- rsrc] *)
  | Ldv of reg * reg * int
      (** cursor-relative load: [rd <- view.(rs + off)], where the view is
          the read-only window streaming dispatch exposes — the first-cell
          header words for a {!Header} handler, the current payload chunk
          for a {!Payload} handler. Episode handlers have no view. *)
  | Lds of reg * reg * int  (** [rd <- scratch.(rs + off)] *)
  | Sts of reg * reg * int
      (** [scratch.(rsrc_base + off) <- rsrc]: the scratch segment is
          per-activation board SRAM, zeroed at every activation — registers
          spill space that cannot leak state between packets. *)
  | Br of cmp * reg * reg * int  (** branch to target if [rs cmp rt] *)
  | Bri of cmp * reg * int * int  (** branch to target if [rs cmp imm] *)
  | Jmp of int
  | Loop of { counter : reg; limit : int; exit : int }  (** bounded-loop header *)
  | Send of { dst : reg; kind : reg; obj : reg; value : reg }
      (** emit a frame from protocol context (all operands are registers) *)
  | Wake of { seq : reg; value : reg }  (** wake the host episode [seq] with [value] *)
  | Halt

(** What event activates the handler — the streaming discriminator (sPIN's
    handler taxonomy). [Episode] is the original whole-message handler,
    activated once per matched frame. [Header] runs once per packet with a
    bounded read-only view of the first cell's words. [Payload] runs once
    per cell chunk of the reassembled body: the view holds [chunk_words]
    words and the handler is activated at most [max_chunks] times per
    packet — the declared maximum payload, which is also what the verifier
    uses to bound its per-packet cost. *)
type hkind =
  | Episode
  | Header of { view_words : int }
  | Payload of { chunk_words : int; max_chunks : int }

type program = {
  name : string;
  hkind : hkind;
  seg_words : int;  (** private board-memory segment, in 8-byte words *)
  scratch_words : int;  (** per-activation scratch segment, zeroed at entry *)
  inputs : int;  (** registers initialized (with untrusted values) at entry *)
  code : instr array;
  relocs : int list;
      (** relocation table: pcs of [Const] instructions whose immediate is a
          segment-relative word address the board loader rebases; sorted *)
}

(** Words visible through [Ldv] for this handler kind (0 for [Episode]). *)
val view_words : program -> int

(** Wire bytes one activation is responsible for — [8 * view_words]. The
    certificate's per-byte bound is WCET divided by this; 0 for [Episode]
    handlers, which carry no per-packet obligation. *)
val bytes_per_activation : program -> int

(** NIC cycles one executed instruction costs (33 MHz board clock): 1 for
    register/branch work, 2 for a segment access, 4 for a host wakeup, 8
    for a send. {!Aih_exec.run} charges these; {!Aih_verify} sums them into
    the certificate's worst case. *)
val instr_cycles : instr -> int

(** The relocatable object-code image: a 36-byte header (magic "AIH2",
    instruction and relocation counts, segment size, input count, handler
    kind + its two parameters, scratch size), 12 bytes per instruction,
    4 bytes per relocation entry.

    @raise Invalid_argument if an immediate, limit or target does not fit
    its 32-bit field. *)
val encode : program -> bytes

(** What installing this program costs the board: the {!encode} image plus
    8 bytes for every declared segment and scratch word. This is the
    [code_bytes] the verifier certifies and [Nic.install_handler] debits. *)
val code_bytes : program -> int

(** A small assembler for building programs with labels: emit instructions
    in order, [fresh]/[place] labels, and {!Asm.assemble} patches every
    branch target. [const_addr] emits a relocated [Const] (a segment word
    address) and records it in the relocation table. *)
module Asm : sig
  type t
  type label

  val create : unit -> t
  val fresh : t -> label

  (** Bind the label to the next instruction's pc.
      @raise Invalid_argument if the label was already placed. *)
  val place : t -> label -> unit

  val const : t -> reg -> int -> unit
  val const_addr : t -> reg -> int -> unit
  val mov : t -> reg -> reg -> unit
  val bin : t -> binop -> reg -> reg -> reg -> unit
  val bini : t -> binop -> reg -> reg -> int -> unit
  val load : t -> reg -> base:reg -> int -> unit
  val store : t -> reg -> base:reg -> int -> unit
  val ldv : t -> reg -> base:reg -> int -> unit
  val lds : t -> reg -> base:reg -> int -> unit
  val sts : t -> reg -> base:reg -> int -> unit
  val br : t -> cmp -> reg -> reg -> label -> unit
  val bri : t -> cmp -> reg -> int -> label -> unit
  val jmp : t -> label -> unit
  val loop : t -> counter:reg -> limit:int -> exit:label -> unit
  val send : t -> dst:reg -> kind:reg -> obj:reg -> value:reg -> unit
  val wake : t -> seq:reg -> value:reg -> unit
  val halt : t -> unit

  (** @raise Invalid_argument if any referenced label was never placed.
      [?hkind] defaults to [Episode], [?scratch_words] to 0, so episode
      call sites read exactly as before. *)
  val assemble :
    ?hkind:hkind -> ?scratch_words:int -> t -> name:string -> seg_words:int -> inputs:int -> program
end
