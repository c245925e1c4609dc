(** Message passing over Application Device Channels.

    The paper's third design goal is to support {e both} the message-passing
    and distributed-shared-memory paradigms (section 1). This library is the
    message-passing side: tagged point-to-point sends and receives plus
    binomial-tree collectives, running entirely at user level over the ADC
    machinery — a PATHFINDER pattern steers the endpoint's packets into its
    mailbox, large payloads ride as bulk data through the Message Cache, and
    no kernel or host interrupt sits on the critical path of a CNI cluster.

    Typical use:
    {[
      let cluster = Cluster.create ~nic_kind ~nodes () in
      let eps = Mp.install cluster in
      Cluster.run_app cluster (fun node ->
          let ep = eps.(Node.id node) in
          if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:7 "hello"
          else ignore (Mp.recv ep ~tag:7 ()))
    ]} *)

(** A received message. *)
type 'a envelope = { src : int; tag : int; bytes : int; value : 'a }

type 'a t

(** The ADC channel the library claims on every board. *)
val channel : int

(** Tags at or above this value are reserved for the collectives. *)
val reserved_tag_base : int

(** The wire channel the NIC-resident collectives claim (see {!install}). *)
val collectives_channel : int

(** [install cluster] creates one endpoint per node and programs every
    board's classifier. Call once, before [run_app].

    [nic_collectives] (default [false]) additionally installs a
    {!Collectives} endpoint set on {!collectives_channel} and reroutes
    {!barrier}, {!broadcast}, {!reduce} and {!allreduce} through it: the
    combining tree runs as AIH code on the boards and the host is woken once
    per collective, instead of driving every round from host send/recv. The
    default keeps the host-driven paths (the ablation baseline). [fanout]
    is the combining-tree arity (default 2; only meaningful with
    [nic_collectives]). *)
val install :
  ?nic_collectives:bool -> ?fanout:int -> 'a envelope Cni_cluster.Cluster.t -> 'a t array

(** Whether this endpoint's collectives are NIC-resident. *)
val nic_collective : 'a t -> bool

val rank : 'a t -> int
val size : 'a t -> int

(** [send t ~dst ~tag ?bytes ?buffer v] — asynchronous tagged send.
    [bytes] (default 64) is the payload size on the wire; payloads of a page
    or more ride as bulk data from [buffer] (a host virtual address, default
    a per-endpoint scratch buffer) and so exercise the DMA / Message Cache
    path. Sending to yourself delivers locally.
    @raise Invalid_argument on a reserved tag or bad destination. *)
val send : 'a t -> dst:int -> tag:int -> ?bytes:int -> ?buffer:int -> 'a -> unit

(** [recv t ?src ~tag ()] — blocking receive matching [tag] and, when given,
    [src]. Messages that do not match are left for other receives
    (tag matching, not FIFO across tags). Fiber context. *)
val recv : 'a t -> ?src:int -> tag:int -> unit -> 'a envelope

(** [recv_timeout t ?src ~tag ~timeout ()] — like {!recv} but gives up after
    [timeout] of simulated time, returning [None]. On timeout the pending
    receive is withdrawn: a message arriving later parks in the mailbox for a
    future receive rather than being lost. Use against a peer that may have
    crashed (a [Crash] event of the cluster's fault schedule) to degrade
    cleanly instead of hanging.
    @raise Invalid_argument on a non-positive timeout or reserved tag. *)
val recv_timeout :
  'a t -> ?src:int -> tag:int -> timeout:Cni_engine.Time.t -> unit -> 'a envelope option

(** Non-blocking probe-and-take. *)
val try_recv : 'a t -> ?src:int -> tag:int -> unit -> 'a envelope option

(** Unmatched messages held by the endpoint. *)
val pending : 'a t -> int

(** {2 Collectives}

    Every node must call the same collectives in the same order. By default
    all are built from {!send}/{!recv} (dissemination barrier, binomial
    broadcast and reduction), so their cost is real message traffic; with
    [~nic_collectives:true] they run on the boards' combining tree instead
    (see {!Collectives}), and [op] must be associative and commutative. *)

(** Barrier: host-driven dissemination (O(log n) rounds), or the NIC
    combining tree. *)
val barrier : 'a t -> unit

(** [broadcast t ~root ?bytes v] — [v] is consulted only at the root; every
    node returns the root's value. *)
val broadcast : 'a t -> root:int -> ?bytes:int -> 'a -> 'a

(** [reduce t ~root ~op ?bytes v] — binomial-tree reduction; the result is
    meaningful only at the root (other ranks get their partial). *)
val reduce : 'a t -> root:int -> op:('a -> 'a -> 'a) -> ?bytes:int -> 'a -> 'a

(** Reduction whose result every node receives. *)
val allreduce : 'a t -> op:('a -> 'a -> 'a) -> ?bytes:int -> 'a -> 'a
