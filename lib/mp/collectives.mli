(** NIC-resident collective operations.

    Barrier, broadcast, reduce and allreduce over a combining tree whose
    per-episode state the model keeps in the endpoint (a scrub leaves it)
    and whose combine/forward steps run as Application Interrupt Handler
    code — Yu et al.'s NIC-based collective protocol over
    Quadrics/Myrinet, mapped onto the CNI's AIH machinery.

    On a CNI board with AIH enabled an episode costs the host exactly two
    actions: posting its local contribution (an ADC descriptor) and blocking
    until the board fills the episode's ivar — {e zero host interrupts}, no
    matter how many tree messages the board combines and forwards meanwhile.
    With AIH disabled (host-handler ablation) the same steps run on the host
    CPU behind the polling/interrupt hybrid; on the standard interface every
    tree packet costs an interrupt plus the kernel receive path, and the
    contribution is posted through the kernel. The host fiber is woken
    exactly once per episode in every configuration.

    An endpoint set is generic in the episode value type ['v] and the
    cluster's wire payload type ['a]: [inject]/[project] convert between the
    two (the identity when the cluster's payload {e is} the value type), and
    [bytes_of] gives a value's wire size. Barrier episodes never touch the
    value machinery.

    Like {!Mp}'s collectives: every node must call the same collectives in
    the same order, and combining operators must be associative and
    commutative (the tree folds contributions in arrival order). *)

type ('v, 'a) t

(** The wire channel claimed by default (Mp uses 2, the DSM protocol 1). *)
val default_channel : int

(** [install ~inject ~project cluster] builds one endpoint per node and
    installs one handler (pattern = the channel) per board, charging 2048
    bytes (object code + tree state) of board memory each. [fanout]
    (default 2) is the combining-tree arity; [bytes_of] (default
    [fun _ -> 64]) sizes a value on the wire.

    The tree is fixed, as in {!Collectives_ir}. A crashed rank is waited
    for, not routed around: its episode state is host state, and the
    tree frames to and from it ride the reliable layer, which parks and
    re-sends them across the crash. A rank that never comes back ends the
    run in a structured failure — [Cluster.Deadlock], or
    [Cni_nic.Reliable.Peer_dead] when a frame to it runs out of retries —
    never in a partial result.
    @raise Invalid_argument on more than 256 nodes or [fanout < 1].
    @raise Failure if a board cannot hold 2048 bytes. *)
val install :
  ?channel:int ->
  ?fanout:int ->
  ?bytes_of:('v -> int) ->
  inject:('v -> 'a) ->
  project:('a -> 'v) ->
  'a Cni_cluster.Cluster.t ->
  ('v, 'a) t array

val rank : ('v, 'a) t -> int
val size : ('v, 'a) t -> int

(** Combining-tree barrier: value-free up phase to rank 0, release fan-out
    back down. *)
val barrier : ('v, 'a) t -> unit

(** [broadcast t ~root v] — [v] is consulted only at the root; every node
    returns the root's value. Down phase only. *)
val broadcast : ('v, 'a) t -> root:int -> 'v -> 'v

(** [reduce t ~root ~op v] — up phase only; the result is meaningful at the
    root (other ranks return their subtree's partial). *)
val reduce : ('v, 'a) t -> root:int -> op:('v -> 'v -> 'v) -> 'v -> 'v

(** Reduction whose result every node receives (up to rank 0, result fans
    back down). *)
val allreduce : ('v, 'a) t -> op:('v -> 'v -> 'v) -> 'v -> 'v

(** Completed episodes at this endpoint (barrier and value episodes both). *)
val episodes : ('v, 'a) t -> int
