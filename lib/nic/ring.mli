(** Application Device Channel descriptor rings.

    Each open connection gets a triplet of transmit / receive / free queues in
    the adaptor's dual-ported memory, shared between application and board
    (section 2.1). Manipulation is lock-free in the real design, relying only
    on the atomicity of loads and stores; here a bounded single-producer /
    single-consumer queue with blocking variants models the same behaviour
    (a full transmit ring stalls the producer exactly as the real board
    would). *)

type 'a t

(** When [registry] is given, the ring's counters are registered as
    [node<N>/<subsystem>/{pushes,pops,full_stalls,empty_stalls}]
    ([subsystem] defaults to ["ring"]); otherwise they are standalone. *)
val create :
  ?registry:Cni_engine.Stats.Registry.t ->
  ?node:int ->
  ?subsystem:string ->
  slots:int ->
  unit ->
  'a t
val slots : 'a t -> int
val length : 'a t -> int
val is_full : 'a t -> bool
val is_empty : 'a t -> bool

(** Non-blocking; [false] when full. *)
val try_push : 'a t -> 'a -> bool

(** Non-blocking; [None] when empty. *)
val try_pop : 'a t -> 'a option

(** The stage form (any event context), for a board stage working on a
    pooled record's [slot] (see {!Cni_engine.Engine.register}). A push is
    {!reserve} then {!put}: [reserve eng t stage slot] takes a free cell
    and returns [true], or counts a full stall, returns [false] and runs
    the stage event (stage, slot) at the pop that frees one. A pop is
    {!claim} then {!take}, alike over the entries, counting empty stalls. *)
val reserve : Cni_engine.Engine.t -> 'a t -> Cni_engine.Engine.stage -> int -> bool

(** Queue [v] into a cell {!reserve} took. *)
val put : 'a t -> 'a -> unit

val claim : Cni_engine.Engine.t -> 'a t -> Cni_engine.Engine.stage -> int -> bool

(** The oldest entry, which {!claim} took; frees its cell. *)
val take : 'a t -> 'a

(** Blocking variants (fiber context), on the same waiting mechanism. *)
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a

type stats = { pushes : int; pops : int; full_stalls : int; empty_stalls : int }

val stats : 'a t -> stats
