(** Persisted performance baselines (the repo's BENCH_<pr>.json files).

    A baseline records one full run of the bench harness in machine-readable
    form: for every Bechamel substrate microbenchmark its wall time and
    minor-heap allocation per run, and for every experiment its wall-clock
    and headline scalar metrics. Baselines are committed to the repository
    so the performance trajectory is falsifiable, and {!compare} turns two
    of them into a pass/fail verdict that CI uses as a regression gate.

    The JSON is read back with a small self-contained parser — the repo
    deliberately takes no JSON library dependency. *)

type substrate_result = {
  ns_per_run : float;  (** Bechamel OLS estimate, monotonic clock *)
  minor_words_per_run : float;  (** Bechamel OLS estimate, minor allocator *)
}

type experiment_result = {
  wall_s : float;  (** wall-clock of the whole experiment driver *)
  metrics : (string * float) list;  (** the report's headline scalars *)
}

type t = {
  schema : int;  (** format version, currently 1 *)
  label : string;  (** e.g. "BENCH_6" *)
  quick : bool;  (** whether the run used [--quick] scaling *)
  zero_alloc : string list;
      (** names of substrate benchmarks under the zero-alloc contract: these
          must stay allocation-free in every later run, regardless of any
          time threshold (the trace hot path lives here) *)
  substrate : (string * substrate_result) list;
  experiments : (string * experiment_result) list;
}

val schema_version : int

(** Name of the substrate benchmark used as the machine-speed anchor: a
    fixed workload of hash-table updates and short-lived list cells, which
    slows with the simulator when a machine does (a plain integer loop
    does not). When both baselines carry it, {!compare} rescales the
    baseline's times by the two anchors' ratio, so a committed baseline
    from one machine gates runs on another without flagging the machines'
    raw speed difference. A baseline recorded with an earlier anchor, under
    another name, is not rescaled. *)
val calibration_name : string

val make :
  label:string ->
  quick:bool ->
  ?zero_alloc:string list ->
  substrate:(string * substrate_result) list ->
  experiments:(string * experiment_result) list ->
  unit ->
  t

(** {2 Serialisation} *)

val to_json : t -> string

(** [of_json s] parses a baseline written by {!to_json}.
    Returns [Error msg] on malformed input or an unsupported schema. *)
val of_json : string -> (t, string) result

val save : file:string -> t -> unit
val load : file:string -> (t, string) result

(** {2 Comparison} *)

type verdict = {
  regressions : string list;
      (** hard failures: time regressions beyond the threshold, broken
          zero-alloc contracts, deterministic metrics that drifted *)
  improvements : string list;  (** speedups beyond the threshold, FYI *)
  notes : string list;  (** skipped or missing entries, mode mismatches *)
}

val ok : verdict -> bool

(** [compare ~baseline ~current ()] flags, per substrate benchmark present
    in both runs:
    - a time regression when [ns_per_run] grew by more than [threshold]
      (default 0.15, i.e. 15%) over the calibration-rescaled baseline and by
      more than [min_ns] (default 1000 ns, an absolute noise floor);
    - a zero-alloc contract break when the benchmark is named in the
      baseline's [zero_alloc] list and the current run allocates — this is
      machine-independent and is never excused by the threshold;
    - an allocation regression when [minor_words_per_run] grew past an
      allocation-specific factor (words/run estimates wobble more than time
      under Bechamel's OLS, so the gate fires on large multiplicative
      growth — the signature of a new per-operation allocation — not on
      estimator noise).

    Experiments are compared only when both runs used the same [quick] mode:
    wall-clock against the baseline with its own, much looser
    [wall_threshold] (default 1.0, i.e. a 2x backstop against catastrophic
    blowups — experiment wall-clocks are single-shot measurements of
    multi-second runs, which ambient machine load moves far beyond what the
    one-point calibration anchor can correct; the calibration rescale is
    applied only upward, for slower machines, and there is an absolute
    floor [min_wall_s], default 0.25 s), and every shared metric for exact
    agreement (the simulator is bit-deterministic, so any drift means the
    numerics changed and the baseline must be regenerated deliberately). *)
val compare :
  baseline:t ->
  current:t ->
  ?threshold:float ->
  ?wall_threshold:float ->
  ?min_ns:float ->
  ?min_wall_s:float ->
  unit ->
  verdict

(** Render a verdict for humans, one finding per line. *)
val pp_verdict : Format.formatter -> verdict -> unit
