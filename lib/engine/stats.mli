(** Statistics collection: counters, HDR histograms, and
    a registry that names metrics per node/subsystem and exports machine-
    readable snapshots. *)

module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit

  val set : t -> int -> unit
  (** Overwrite the value (gauge semantics, e.g. a time total copied into the
      registry at snapshot time). *)

  val value : t -> int
  val reset : t -> unit
end

module Histogram : sig
  (** HDR-style log-bucketed histogram over non-negative integer samples.

      Values below 32 get exact unit-width buckets; above that each
      power-of-two octave is split into 32 sub-buckets, so any recorded
      quantile is within a factor of [1 + 1/32] (~3.1%) of the true sample —
      constant relative error at any magnitude, constant memory, O(1)
      observe. *)
  type t

  (** A fresh, empty histogram. *)
  val create : unit -> t

  (** [observe t v] records one sample. Negative samples are clamped to 0.
      O(1), no allocation. *)
  val observe : t -> int -> unit

  (** Number of samples recorded. *)
  val count : t -> int

  (** Exact smallest recorded sample (0 when empty). *)
  val min_value : t -> int

  (** Exact largest recorded sample (0 when empty). *)
  val max_value : t -> int

  (** Exact arithmetic mean of the samples (0 when empty). *)
  val mean : t -> float

  (** [quantile t q] with [0 <= q <= 1]: an upper bound on the sample at
      rank [ceil (q * count)], tight to the bucket width (so within ~3.1%
      relative error) and never above {!max_value}. [quantile t 1.0] is the
      exact maximum. 0 when empty. *)
  val quantile : t -> float -> int

  (** Non-empty buckets in increasing order as [(lo, hi, count)]: [count]
      samples fell in the inclusive value range [lo..hi]. *)
  val buckets : t -> (int * int * int) list

  (** The worst-case relative error of {!quantile} below rank 1.0:
      [1/32]. *)
  val max_relative_error : float

  val reset : t -> unit
end

(** [json_escape s] escapes [s] for use inside a JSON string literal. *)
val json_escape : string -> string

module Registry : sig
  (** A named collection of metrics. Names follow
      [node<N>/<subsystem>/<metric>] (or [<subsystem>/<metric>] without a
      node); [counter]/[histogram] find-or-create, so subsystems
      can share a metric by name.

      Typically one registry per simulated cluster: independent runs do not
      share metric state. *)

  type t

  val create : unit -> t

  val counter : t -> ?node:int -> subsystem:string -> string -> Counter.t
  val histogram : t -> ?node:int -> subsystem:string -> string -> Histogram.t
  (** @raise Invalid_argument if the name is registered with another type. *)

  val size : t -> int
  (** Number of registered metrics. *)

  val reset : t -> unit
  (** Reset every registered metric. *)

  type value =
    | Counter_v of int
    | Histogram_v of { count : int; buckets : (int * int * int) list }
        (** buckets as {!Histogram.buckets} reports them *)

  type snapshot = (string * value) list
  (** Sorted by metric name. *)

  val snapshot : t -> snapshot

  val diff : before:snapshot -> after:snapshot -> snapshot
  (** Metric movement between two snapshots: counters and histogram counts
      subtract, and histogram buckets subtract bucket by bucket. Metrics
      absent from [before] diff against zero. *)

  val value_to_json : value -> string

  val snapshot_to_json : snapshot -> string
  (** One JSON object: metric name -> value (counters as numbers,
      histograms as objects). *)
end
