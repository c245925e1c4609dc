(** Deterministic fault injection for the interconnect and the nodes.

    The frame-level model is attached to the {!Fabric} and consulted once per
    frame at injection time (so the random stream depends only on the order of
    [Fabric.send] calls, which the engine makes deterministic). Four fault
    classes, all seeded from one explicit {!Cni_engine.Rng} stream:

    - per-cell loss: each of the frame's cells is lost independently with
      probability [cell_loss]; a frame missing any cell cannot pass AAL5
      reassembly and is dropped at the destination;
    - per-cell corruption: payload bytes flipped in flight with probability
      [cell_corrupt] per cell — the frame arrives but its AAL5 CRC check
      fails (the packet is delivered with [crc_ok = false]);
    - whole-frame drop with probability [frame_drop] (e.g. a switch buffer
      overflow taking out every cell of one packet);
    - timed link-down windows: while [now] is inside a window, every frame
      entering or leaving [w_node]'s link is discarded.

    On top of the frame-level model sits a declarative {e node-fault
    schedule}: timed crash / restart / board-scrub events per node, driven
    off engine time by [Cluster]. The schedule is data only — this module
    parses, validates and orders it; the crash semantics (frozen fibers,
    scrubbed boards, parked and re-sent frames) live in [Nic]/[Node]/[Cluster].

    Counting and tracing of fault events is done by the fabric, which knows
    node ids and owns the metrics registry. *)

type window = {
  w_node : int;  (** node whose link is severed *)
  w_from : Cni_engine.Time.t;  (** window start (inclusive) *)
  w_upto : Cni_engine.Time.t;  (** window end (exclusive) *)
}

(** A node-level fault. [Crash { scrub = true }] additionally wipes the CNI
    board (handlers, message cache, firmware) so the restart must re-install
    and re-verify everything; [scrub = false] models a reset that preserves
    board memory. *)
type node_fault = Crash of { scrub : bool } | Restart

type event = {
  e_at : Cni_engine.Time.t;  (** engine time at which the fault fires *)
  e_node : int;
  e_fault : node_fault;
}

type config = {
  seed : int;
  cell_loss : float;  (** per-cell loss probability, in [0,1] *)
  cell_corrupt : float;  (** per-cell corruption probability, in [0,1] *)
  frame_drop : float;  (** whole-frame drop probability, in [0,1] *)
  link_down : window list;
  schedule : event list;  (** node crash/restart events, any order *)
}

(** All probabilities zero, no windows, empty schedule; [seed = 42]. *)
val none : config

val is_none : config -> bool

(** [with_loss ?seed p] is {!none} with [cell_loss = p]. *)
val with_loss : ?seed:int -> float -> config

(** Sort windows per node and merge overlapping or adjacent ones, so an
    instant covered by two declared windows appears in exactly one merged
    window. {!create} applies this to the list {!link_down} consults;
    exposed for the doctor's down-time accounting and for tests. *)
val normalize_windows : window list -> window list

(** The schedule in chronological order (stable: declaration order breaks
    ties). *)
val sorted_schedule : config -> event list

(** [validate ~nodes cfg] checks the whole config against a cluster of
    [nodes] nodes: probabilities in range, windows well-formed and in node
    range, and the schedule consistent (no crash of an already-crashed node,
    every restart strictly after a prior crash of the same node). Returns
    all problems found, not just the first. *)
val validate : nodes:int -> config -> (unit, string list) result

(** [directive cfg word args] applies one line of the text format — the
    directive [word] and its whitespace-separated [args] — to [cfg]. The
    directives, with times in integer microseconds of engine time:
    {v
    seed SEED
    loss P
    corrupt P
    drop P
    down NODE FROM_US UPTO_US
    crash NODE AT_US [scrub]
    restart NODE AT_US
    v}
    [down], [crash] and [restart] append to the window list or the schedule;
    the others set their field. The error (an unknown directive, a wrong
    argument count, a malformed number) carries no line number: callers
    that read a file add it. Scenario profiles read their fault lines
    through this parser too. *)
val directive : config -> string -> string list -> (config, string) result

(** Parse a whole fault-schedule text: one {!directive} per line, ['#']
    starts a comment, blank lines are skipped. The error carries the
    offending line number. *)
val config_of_string : string -> (config, string) result

(** Render a config back into the text format, omitting the seed when it is
    {!none}'s and zero probabilities. Probabilities are printed with 17
    significant digits and times in whole microseconds, so a round-trip
    through {!config_of_string} yields an equal config for
    microsecond-aligned times. *)
val config_to_string : config -> string

type t

(** @raise Invalid_argument listing every rule of {!validate} the config
    breaks, node ids held only to be non-negative (the cluster size is not
    known here). The stored window list is normalized with
    {!normalize_windows}. *)
val create : config -> t

val config : t -> config

type verdict =
  | Pass  (** deliver intact *)
  | Corrupt of int  (** deliver with a failing CRC; [n] cells corrupted *)
  | Lose_cells of int  (** [n] cells lost in flight; the frame is dropped *)
  | Drop  (** the whole frame vanishes *)

(** [judge t ~cells] draws the fate of one [cells]-cell frame. *)
val judge : t -> cells:int -> verdict

(** Is [node]'s link inside a down window at time [now]? Consults the
    normalized window list. *)
val link_down : t -> node:int -> now:Cni_engine.Time.t -> bool
