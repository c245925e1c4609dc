(** The preflight check list shared by [cni_sim doctor], [cni_sim run] (and
    every other command that builds a cluster), [cni_sim scenario doctor]
    and {!Scenario.validate}.

    Each configuration rule is stated once, here or in the validator it
    wraps. Whatever a build can reject — machine geometry, topology, fault
    model, board memory, protocol limits — is left to the install path
    itself: {!catch} runs the build step and reports its error, so a
    preflight is a dry run of the real construction rather than a copy of
    it. *)

(** A labelled verdict: [Ok detail] when the check passed ([detail] may be
    empty), [Error problem] when it failed. *)
type t = string * (string, string) result

(** [verdict label detail r] labels a validator's result. [detail] is
    computed only when [r] is [Ok]; the errors of an [Error] are joined
    with ["; "]. *)
val verdict : string -> (unit -> string) -> (unit, string list) result -> t

(** Topology admission ({!Cni_atm.Topology.validate}). *)
val topology : Cni_atm.Topology.kind -> nodes:int -> (unit, string list) result

(** The resolved shape of an admitted topology, for a verdict's detail. *)
val describe_topology : Cni_atm.Topology.kind -> nodes:int -> unit -> string

(** The fault model: {!Cni_atm.Faults.validate}, plus the rule that every
    crash has a matching restart. A node that stays down strands the peers
    blocked on it — a DSM barrier, a client's pending receive — so the run
    could never drain. *)
val faults : nodes:int -> Cni_atm.Faults.config -> (unit, string list) result

(** [catch build] runs a build step (cluster creation and protocol
    installation, stopped before the first event) and returns the
    [Invalid_argument] or [Failure] an installer raised as [Error]. *)
val catch : (unit -> 'a) -> ('a, string) result

(** The structured outcome a run ended with when it did not complete:
    ["watchdog"] (quiescence timeout), ["deadlock"], ["peer-dead"],
    ["delivery-failed"], or the exception's text for anything else.
    [cni_sim chaos] reports it; {!run_failure} names it. *)
val outcome_of_exn : exn -> string

(** The ["run completes"] verdict of a run [e] ended:
    [Error "<outcome>: <message>"], the message being the failed fiber's
    exception, or [e]'s. *)
val run_failure : exn -> t

(** [print oc checks] writes one [ok]/[FAIL] line per check to [oc] and
    returns how many failed. *)
val print : out_channel -> t list -> int
