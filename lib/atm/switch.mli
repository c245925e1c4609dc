(** Banyan (omega) switch routing model.

    A [ports]-port omega network has log2(ports) stages of 2x2 switching
    elements with a perfect-shuffle interconnection, and is self-routing: at
    stage [s] an element routes by destination-address bit [k-1-s]. The model
    exposes the route taken by a (src, dst) pair and internal-conflict
    detection between two routes; the paper's 500 ns "switch latency" is the
    end-to-end traversal time of this structure, which {!Fabric} charges. *)

type t

(** @raise Invalid_argument unless [ports] is a power of two >= 2. *)
val create : ports:int -> t

val ports : t -> int
val stages : t -> int

(** [route t ~src ~dst] is the wire label occupied after each stage
    (length [stages t]).
    @raise Invalid_argument if [src] or [dst] is out of range. *)
val route : t -> src:int -> dst:int -> int array

(** [next_wire t ~stage ~wire ~dst] is the wire occupied after [stage],
    entered on [wire] (the source port for stage 0): element [i] of
    {!route}'s array, by the same formula, for walking the stages without
    allocating. Inputs are not checked. *)
val next_wire : t -> stage:int -> wire:int -> dst:int -> int

(** [conflict t (s1, d1) (s2, d2)] is [true] when the two routes contend for
    the same output wire of some internal element (the classic banyan
    blocking condition). Distinct destinations can still conflict. *)
val conflict : t -> int * int -> int * int -> bool

(** Fraction of conflicting pairs over all src-permutation pairs for a given
    random permutation — used by tests and the switch example to exhibit
    banyan blocking. *)
val conflicts_in_permutation : t -> int array -> int
