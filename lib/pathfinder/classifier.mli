(** The PATHFINDER classification DAG, compiled to indexed dispatch.

    Patterns are inserted with a priority equal to their insertion order
    (earlier = higher); common field prefixes share DAG nodes, which is what
    made the hardware implementation fast and is preserved here so the
    structure (node count vs. pattern count) can be observed.

    Out-edges of a node are grouped by field {e spec} — the (offset, len,
    mask) triple — and within a spec indexed by expected value in a sorted
    array, so classifying at a node costs one header read and one binary
    search per distinct spec rather than one comparison per sibling
    pattern. With the common layout where many patterns differ only in one
    field's value (e.g. one pattern per channel), classification is
    O(pattern depth) instead of O(patterns). Patterns whose fields read
    different parts of the header simply occupy different specs and are
    each probed once — the wildcard/fallback case degrades gracefully to one
    probe per distinct spec, never to one per pattern.

    {!classify} allocates nothing: a node's specs are scanned in insertion
    order from an array, the header is read with {!Pattern.read_raw}, and
    the returned option is the one built when the pattern was added. *)

type 'a t

(** Identifies one inserted pattern for {!remove}. *)
type handle

(** [create ()] is an empty classifier. *)
val create : unit -> 'a t

(** [add t pattern action] inserts; patterns may overlap. An empty pattern
    matches every packet. Priority is insertion order: of several matching
    patterns, {!classify} returns the one added first. *)
val add : 'a t -> Pattern.t -> 'a -> handle

(** [remove t h] removes the pattern and eagerly sweeps its accept entry
    from the DAG, so repeated install/uninstall churn does not accumulate
    dead state ({!accept_entries} always equals {!patterns}). Interior
    structure shared with live patterns is retained. Removing twice is a
    no-op. *)
val remove : 'a t -> handle -> unit

(** [classify t header] is the action of the highest-priority live matching
    pattern, if any. Allocation-free: a match returns the [Some action]
    value {!add} built, so repeated matches of one pattern return the same
    (physically equal) option. *)
val classify : 'a t -> Bytes.t -> 'a option

(** [classify_linear t header] — reference semantics: a priority-ordered
    linear scan of every live pattern using {!Pattern.matches}. Always
    agrees with {!classify}; deliberately O(patterns), kept as the oracle
    for property tests and as the baseline for the classification
    microbenchmark. Does not update {!stats}. *)
val classify_linear : 'a t -> Bytes.t -> 'a option

(** Number of live patterns. *)
val patterns : 'a t -> int

(** Number of DAG edges (a measure of prefix sharing: inserting k patterns
    with a common prefix of length p creates the prefix edges only once). *)
val edges : 'a t -> int

(** Number of accept entries stored in the DAG. Equals {!patterns} — the
    invariant that removal sweeps dead accepts instead of tombstoning them;
    exposed so tests can assert it. *)
val accept_entries : 'a t -> int

type stats = {
  classifications : int;  (** total {!classify} calls *)
  matches : int;  (** classifications that returned an action *)
  probes : int;
      (** field reads performed across all classifications; [probes /
          classifications] is the observable O(pattern depth) cost of the
          indexed walk *)
}

(** Lifetime counters for this classifier. *)
val stats : 'a t -> stats
