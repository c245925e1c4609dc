(** Multi-switch fabric topologies: the interconnect as a graph of switches
    and links.

    The paper's fabric is one central banyan switch; that caps the cluster
    at the switch's port count. This module describes scale-out shapes —
    while staying pure structure: builders, per-switch port maps and
    deterministic routes. The {!Fabric} owns all timing state (output-port
    and internal-wire occupancy per switch) and charges contention along
    the routes computed here.

    Three shapes:

    - {b Single}: one central switch, every node on its own port — the
      seed model, kept bit-identical by the fabric's timing path.
    - {b Fat-tree}: a two-level folded Clos. Leaves expose half their
      radix to hosts and half to spines; every spine connects to every
      leaf. Up-down routing, with the spine picked by destination
      ([dst mod spines]) so a flow's path is deterministic and the load
      of distinct destinations spreads across spines.
    - {b 3D torus}: one router per node (APEnet+-style direct network),
      ±1 links in each dimension with wraparound, deterministic
      dimension-order (x, then y, then z) routing taking the shorter way
      around each ring (ties go to the positive direction).

    Every route is a sequence of {!hop}s — (switch, in-port, out-port)
    triples — with an implied link before each hop and one after the last
    (the destination's host link). A route with [k] hops therefore crosses
    [k] switches and [k + 1] links. *)

type kind =
  | Single
  | Fat_tree of { leaf_radix : int }
      (** [leaf_radix] ports per leaf: half down to hosts, half up to
          spines. Must be even and >= 2. *)
  | Torus of { dims : (int * int * int) option }
      (** [None] picks the most cubic factorization of the node count. *)

(** One switch traversal: enter [h_switch] on port [h_in], leave on
    [h_out]. *)
type hop = { h_switch : int; h_in : int; h_out : int }

type t

(** [of_kind kind ~nodes] builds the topology, resolving defaults (auto
    torus dimensions).
    @raise Invalid_argument when {!validate} rejects the combination. *)
val of_kind : kind -> nodes:int -> t

val single : nodes:int -> t

(** Default [leaf_radix] is 16 (8 hosts + 8 spines per leaf). *)
val fat_tree : ?leaf_radix:int -> nodes:int -> unit -> t

(** Default [dims] is {!auto_dims}[ nodes]. *)
val torus : ?dims:int * int * int -> nodes:int -> unit -> t

val kind : t -> kind
val nodes : t -> int
val switch_count : t -> int

(** Ports actually wired on switch [i] (hosts + inter-switch links).
    @raise Invalid_argument on an out-of-range switch. *)
val switch_ports : t -> int -> int

(** The banyan model of switch [i]'s internals, sized to the next power of
    two above {!switch_ports} — {!Switch.route} through it gives the
    internal wires a traversal occupies, which the fabric uses for
    internal-conflict accounting and (on multi-switch shapes) charging. *)
val switch_model : t -> int -> Switch.t

(** Host links plus inter-switch links (a torus router's positive-direction
    link in each dimension is counted once). *)
val link_count : t -> int

(** The route as a hop array: the reference that {!hops}, the fabric's
    [path_latency] and the tests use. The fabric walks frames with {!Walk}
    instead, which visits the same hops without allocating.
    @raise Invalid_argument on out-of-range or equal endpoints. *)
val route : t -> src:int -> dst:int -> hop array

(** [Array.length (route t ~src ~dst)] without building the array twice at
    call sites that only need the count. *)
val hops : t -> src:int -> dst:int -> int

(** A cursor over one route's hops at a time, allocation-free: it visits
    exactly {!route}'s hops, in order. A torus hop is a coordinate-table
    lookup and a stride (the table holds 3 ints per router), with no
    division. One cursor serves any number of routes, one at a time. *)
module Walk : sig
  type topo := t
  type t

  val create : topo -> t

  (** Position the cursor on the first hop of the route from [src] to
      [dst].
      @raise Invalid_argument on out-of-range or equal endpoints. *)
  val start : t -> src:int -> dst:int -> unit

  (** Move to the next hop; [false], leaving the cursor where it is, when
      the current hop was the last. *)
  val next : t -> bool

  (** The current hop, as {!hop}'s fields. *)
  val switch : t -> int

  val in_port : t -> int
  val out_port : t -> int
end

(** Switch hops on the longest route (the topology diameter). *)
val max_hops : t -> int

(** The most cubic [a <= b <= c] factorization of [n] (minimal largest
    dimension); [64] gives [(4, 4, 4)]. *)
val auto_dims : int -> int * int * int

(** [validate kind ~nodes] explains, rather than raises, why a combination
    is unusable: non-positive node count, odd or too-small fat-tree radix,
    torus dimensions that do not multiply out to the node count. *)
val validate : kind -> nodes:int -> (unit, string) result

(** Accepts [single], [fat-tree], [fat-tree:RADIX], [torus] and
    [torus:XxYxZ]. *)
val kind_of_string : string -> (kind, string) result

val kind_to_string : kind -> string

(** One human line, e.g. ["3d-torus 4x4x4, 64 switches, 160 links"]. *)
val describe : t -> string
