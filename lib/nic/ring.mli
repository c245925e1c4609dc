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

(** Blocking variants in callback form (any event context): [push_then]
    runs [k] once [v] is queued, [pop_then] passes [k] the oldest entry. *)
val push_then : Cni_engine.Engine.t -> 'a t -> 'a -> (unit -> unit) -> unit
val pop_then : Cni_engine.Engine.t -> 'a t -> ('a -> unit) -> unit

(** Blocking variants (fiber context). *)
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a

type stats = { pushes : int; pops : int; full_stalls : int; empty_stalls : int }

val stats : 'a t -> stats
