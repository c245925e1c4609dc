(** The AIH firmware interpreter.

    Executes a (verified) {!Aih_ir.program} against the handler's board
    segment, charging NIC cycles per executed instruction through the
    {!services} record's [sv_charge] — so a verified handler's protocol cost is a
    function of the code actually installed, not the flat dispatch guess.
    Charges accrued so far are flushed {e before} every [send] and [wake]
    and at [halt]: state transitions complete (and are paid for) before any
    message leaves, matching the closure handlers' discipline. *)

(** What the firmware may do to the world. The NIC supplies these when it
    activates a verified handler: [sv_send] becomes a protocol-context
    reply, [sv_wake] fills the host episode ivar, [sv_charge] burns NIC
    cycles (or host cycles, on a board without AIH). *)
type services = {
  sv_send : dst:int -> kind:int -> obj:int -> value:int -> unit;
  sv_wake : seq:int -> value:int -> unit;
  sv_charge : int -> unit;
}

(** Raised on a runtime violation — out-of-segment access, division by
    zero, bad shift, runaway pc, or fuel exhaustion. Verified programs
    cannot fault (the checks are defense in depth); an unverified program
    run directly can. *)
exception Fault of string

(** [run p ~mem ~inputs services] activates the program: registers
    [0 .. inputs-1] are loaded from [inputs] (the rest start zero), [mem]
    is the handler's persistent board segment (at least [p.seg_words]
    long), and the return value is the total cycles charged. [view] is the
    read-only window [Ldv] reads — the header words or payload chunk
    streaming dispatch latched for this activation (empty for episode
    handlers). A fresh zeroed scratch segment of [p.scratch_words] words
    backs [Lds]/[Sts] for the duration of the run. A run of 1_000_000
    instructions faults: a hard stop far above any verifiable worst case. *)
val run :
  ?view:int array -> Aih_ir.program -> mem:int array -> inputs:int array -> services -> int
