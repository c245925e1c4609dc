(** The lazy invalidate release-consistency protocol engine (section 3.1).

    One [Lrc.t] per node. Client operations ({!acquire}, {!release},
    {!barrier}, page faults) run on the node's application fiber and charge
    client-side costs there; the server side (lock routing, page and diff
    service, barrier management) is installed on each node's NIC as one
    Application Interrupt Handler per protocol kind — on a CNI board the
    handlers execute on the 33 MHz NIC processor behind PATHFINDER, on the
    standard board they run on the host CPU behind an interrupt.

    Protocol outline (TreadMarks-style LRC):
    - static lock managers forward acquires to the last owner, which grants
      directly to the requester, piggybacking the write notices of every
      interval the requester has not seen;
    - applying a write notice invalidates the page; the fault that follows
      fetches either the missing diffs from their writers or — when the
      accumulated diffs approach the page size, or the node has no base copy
      — the whole page from its last writer (a migratory transfer, flagged
      cacheable so the Message Cache binds it on both sides);
    - at a release the dirtied pages are compared against their twins; diff
      descriptors are logged, the pages flushed from the write-back cache
      (which is also what keeps the Message Cache consistent), and on a CNI
      board the diff data is deposited in AIH memory so the board can serve
      diff requests without touching the host;
    - barriers are centralised at node 0 and redistribute the merged
      interval knowledge. *)

type t

(** [install cluster space] creates one protocol engine per node and installs
    the server handlers on every NIC. [max_resident_pages] bounds the shared
    mappings a node keeps (approximate-LRU replacement of clean pages, the
    paper's address-space recycling); default unbounded.

    [barrier_impl] selects how {!barrier} synchronises (default
    [`Centralised], the original node-0 manager that collects arrivals and
    broadcasts releases). [`Nic_collective] instead installs a
    {!Cni_mp.Collectives} combining tree on channel 4 and runs each barrier
    as an allreduce of (vector clock, own write notices) executed by the
    boards' AIHs: on a CNI or OSIRIS interface the host is woken exactly
    once per barrier with the merged result and takes no interrupt. *)
val install :
  Protocol.msg Cni_cluster.Cluster.t ->
  Space.t ->
  ?max_resident_pages:int ->
  ?barrier_impl:[ `Centralised | `Nic_collective ] ->
  unit ->
  t array

(** The wire channel the [`Nic_collective] barrier's combining tree claims
    ({!Protocol.channel} carries the point-to-point DSM traffic). *)
val collectives_channel : int

val me : t -> int
val node : t -> Protocol.msg Cni_cluster.Node.t
val space : t -> Space.t

(** {2 Page access (used by {!Shmem})} *)

(** Fault the page in for reading (no-op when valid). *)
val ensure_read : t -> page:int -> unit

(** Fault in for writing: read fault plus twin creation on the first write of
    the interval. *)
val ensure_write : t -> page:int -> unit

(** Record modified words (word index range within the page). *)
val mark_dirty_words : t -> page:int -> word_lo:int -> words:int -> unit

(** First-touch initialisation: validate the page locally with no traffic
    (the node becomes its last writer). Only sensible before any sharing. *)
val validate_local : t -> page:int -> unit

(** {2 Synchronisation} *)

(** @raise Invalid_argument on re-acquiring a held lock. *)
val acquire : t -> lock:int -> unit

(** @raise Invalid_argument if not held. *)
val release : t -> lock:int -> unit

(** All nodes must call [barrier] with the same id per episode. *)
val barrier : t -> id:int -> unit

type stats = {
  faults : int;
  page_fetches : int;
  diff_fetches : int;
  twins : int;
  intervals : int;
  notices_applied : int;
  local_acquires : int;
  remote_acquires : int;
  barriers : int;
  evictions : int;
}

val stats : t -> stats

(** Protocol messages this node has received, by kind (non-zero only) — the
    traffic mix behind the timing results. *)
val received_messages : t -> (string * int) list
