(** Named scenario profiles: one value that pins everything a serving run
    depends on — cluster shape, interconnect topology, NIC kind and receive
    policy, workload (arrival process, mix, sizes), and fault model — with
    a text form you can version, diff and hand to [cni_sim scenario].

    A profile is deliberately {e complete}: two invocations of {!run} on
    equal profiles produce byte-identical metrics, because every random
    stream in the stack (arrival gaps, key/op draws, fault coin-flips) is
    seeded from the profile's fields. docs/SCENARIOS.md is the cookbook:
    the grammar, every built-in, and how to read the tail-latency report. *)

(** Which network interface the cluster's nodes carry. *)
type nic = Cni | Osiris | Standard

(** Receive-side policy for the CNI board ({!Cni_nic.Nic.rx_policy};
    [Adaptive] uses {!Cni_nic.Nic.default_rx_adaptive}). Ignored by the
    [Osiris] and [Standard] interfaces, which have fixed receive paths. *)
type rx = Interrupt | Poll | Hybrid | Adaptive

(** The one name table for interfaces and receive policies, in listing
    order: the profile text, [cni_sim]'s [--nic] and [--rx-policy] and the
    ablation reports all spell them this way. *)
val nic_names : (string * nic) list

val rx_names : (string * rx) list

(** The NIC policy a profile's [rx] selects. *)
val to_rx_policy : rx -> Cni_nic.Nic.rx_policy

(** The complete recipe for one serving run. *)
type profile = {
  name : string;  (** lowercase-kebab identifier ([baseline-16], ...) *)
  summary : string;  (** one line: what this profile stresses *)
  clients : int;  (** client nodes *)
  servers : int;  (** server nodes (total cluster = clients + servers) *)
  requests_per_client : int;  (** open-loop requests per client *)
  arrival : Arrival.kind;  (** per-client inter-arrival process *)
  value_bytes : int;  (** put-request / get-response payload *)
  put_pct : int;  (** percentage of puts, 0..100 *)
  service_cycles : int;  (** host cycles a server burns per request *)
  seed : int;  (** master seed; every stream derives from it *)
  nic : nic;
  aih : bool;
      (** CNI only: run the message-passing handler as AIH code on the
          board. With it on, delivery never touches the host and the
          receive policy is moot; turn it {e off} to route delivery
          through the host path and expose [rx_policy] in the tail. *)
  rx_policy : rx;
  rx_batch : int;  (** ADC delivery batching ({!Cni_nic.Nic.cni_options}) *)
  topology : Cni_atm.Topology.kind;
  faults : Cni_atm.Faults.config;
}

(** A sane starting point for composing custom profiles: 12 clients and 4
    servers on a single switch, Poisson 20k req/s per client, 256-byte
    values with 20% puts, CNI board with the hybrid receive policy, no
    faults. [name] and [summary] are empty — fill them in. *)
val default : profile

(** The shipped profiles, in the order [list] prints them. Each one passes
    {!validate} and {!preflight} (CI runs the doctor over all of them). *)
val builtins : profile list

(** Look a built-in up by name. *)
val find : string -> profile option

(** [validate p] collects {e every} inconsistency — field ranges, arrival
    parameters, name format, topology vs node count, fault model vs node
    count, and crash events without a matching restart (which would strand
    the workload's blocking receives) — rather than stopping at the first.
    It runs the same checks as {!preflight} (see {!Check}), minus service
    capacity. *)
val validate : profile -> (unit, string list) result

(** Parse the profile text format (see docs/SCENARIOS.md): one
    [key value] pair per line, ['#'] comments, unknown keys rejected.
    The fault lines are {!Cni_atm.Faults.directive}s, the fault model's
    [seed] spelled [fault-seed]. Fields not mentioned keep their {!default}
    value; [name] is mandatory. The error names the offending line.
    Parsing does not {!validate} — call it separately so all semantic
    problems are reported together. *)
val of_string : string -> (profile, string) result

(** Render a profile in the text format; the fault lines are
    {!Cni_atm.Faults.config_to_string}'s, so a default seed and zero
    probabilities are omitted. The round-trip [of_string (to_string p) =
    Ok p] is exact: floats are printed with full precision and fault times
    at microsecond granularity (which is how they are declared). *)
val to_string : profile -> string

(** Preflight checks for the doctor, cheap enough to run before every long
    run: each entry is a labelled verdict, [Ok detail] or [Error problem]
    (see {!Check.t}). Covers {!validate}'s checks — profile fields, the
    arrival process, topology admission (with the resolved shape), the
    fault model with crash/restart pairing — plus a service-capacity check
    that flags offered load at or beyond the servers' aggregate service
    rate (where the queue — and the tail — grows without bound). Every
    failing check except service capacity has a matching {!validate}
    error. *)
val preflight : profile -> (string * (string, string) result) list

(** Offered load of the whole profile, requests per second of simulated
    time ([clients * mean arrival rate]). *)
val offered_rps : profile -> float

(** Run the profile to completion. [watchdog] defaults to 2 simulated
    seconds, matching {!Cni_apps.Kv_serve.run}.
    @raise Invalid_argument when {!validate} rejects the profile. *)
val run : ?watchdog:Cni_engine.Time.t -> profile -> Cni_apps.Kv_serve.result
