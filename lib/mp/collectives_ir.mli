(** NIC-resident collectives as {e verified firmware}.

    The same combining-tree protocol as {!Collectives} — identical channel,
    wire kinds, header layout and message pattern — but the per-board
    combine/forward step is an {!Cni_aih.Aih_ir.program} admitted through
    {!Cni_nic.Nic.install_handler_verified} instead of an OCaml closure:
    the board debits the firmware's {e certified} object size, every
    activation is charged the NIC cycles it actually executes, and the
    install fails up front if the step could dereference outside its board
    segment or run unbounded. This is the first handler in the tree to go
    through the paper's full "pointer-safe, relocatable object code"
    admission path.

    Differences from the closure implementation, by construction:
    - The episode value type is [int] (a firmware register);
      [inject]/[project] convert to and from the cluster payload type.
    - The combining op is baked into the generated code at install time
      ([op]), so early child contributions fold on arrival — no pending
      queue. Ops are associative and commutative, so results are identical
      (the qcheck parity property in [test/test_aih.ml] checks results
      {e and} per-node message counts against {!Collectives}).
    - Episode state lives in a fixed table of 16 board-segment slots, so at
      most 16 episodes may be in flight per endpoint; callers that issue
      collectives in order (every node, same order — already required)
      never approach this. A scrub loses the episodes in flight.

    The closure path remains the default throughout the tree; this module
    is opt-in. *)

type 'a t

type op = Sum | Max | Min

(** Same channel as {!Collectives.default_channel}: the two implementations
    are interchangeable on the wire (install only one per cluster). *)
val default_channel : int

(** [program ~op ~rank ~size ~fanout] is the combining-tree firmware one
    endpoint installs — exposed for the verifier corpus, the [aih-verify]
    smoke test and the microbenchmarks.
    @raise Invalid_argument unless [size] is in [2 .. 256], [rank] in
    [0 .. size - 1] and [fanout] in [1 .. 255]. *)
val program : op:op -> rank:int -> size:int -> fanout:int -> Cni_aih.Aih_ir.program

(** [install ~op ~inject ~project cluster] generates, verifies and installs
    one firmware image per board and returns the per-node endpoints, on
    {!Collectives.default_channel} with a 64-byte value on the wire.
    [fanout] (default 2) is the combining-tree arity.
    @raise Invalid_argument on more than 256 nodes or [fanout] outside
    [1 .. 255].
    @raise Failure if a generated program fails verification (a bug — the
    shipped firmware must verify) or a board cannot hold its certified
    size. *)
val install :
  ?fanout:int ->
  op:op ->
  inject:(int -> 'a) ->
  project:('a -> int) ->
  'a Cni_cluster.Cluster.t ->
  'a t array

val rank : 'a t -> int
val size : 'a t -> int

(** The admission certificate this endpoint's board holds ([None] on a
    single-node cluster, where nothing is installed). *)
val cert : 'a t -> Cni_aih.Aih_verify.cert option

(** Combining-tree barrier: value-free up phase to rank 0, release fan-out
    back down. *)
val barrier : 'a t -> unit

(** [broadcast t ~root v] — [v] is consulted only at the root; every node
    returns the root's value. Down phase only. *)
val broadcast : 'a t -> root:int -> int -> int

(** [reduce t ~root v] — up phase only; the result is meaningful at the
    root (other ranks return their subtree's partial). *)
val reduce : 'a t -> root:int -> int -> int

(** Reduction whose result every node receives (up to rank 0, result fans
    back down). *)
val allreduce : 'a t -> int -> int

(** Completed episodes at this endpoint. *)
val episodes : 'a t -> int
