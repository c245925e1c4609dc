(* Crash/restart chaos harness: deterministic fault schedules injected into
   real application runs, with the recovery metrics the ablation reports.
   Everything downstream of the seed is deterministic — two invocations with
   the same arguments produce identical metrics. *)

module Time = Cni_engine.Time
module Rng = Cni_engine.Rng
module Faults = Cni_atm.Faults
module Fabric = Cni_atm.Fabric
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Space = Cni_dsm.Space
module Lrc = Cni_dsm.Lrc
module Jacobi = Cni_apps.Jacobi

type metrics = {
  outcome : string;
  completed : bool;
  elapsed_us : float;
  crashes : int;
  restarts : int;
  retransmits : int;
  crash_drops : int;
  recoveries : int;
  mean_recovery_us : float;
  rx_timeouts : int;
  checksum : float;
}

(* [crashes] crash->restart windows in disjoint time slots (so the schedule
   always validates: a node is never crashed twice concurrently), nodes and
   in-slot jitter drawn from the seed. Node 0 is spared — it is the DSM
   manager and every harness's root/validator. *)
let schedule ~seed ~nodes ~crashes ~start ~slot ~down ~scrub =
  if crashes > 0 && nodes < 2 then invalid_arg "Chaos.schedule: need at least 2 nodes";
  let jitter = 40 in
  if slot <= Time.(down + Time.us jitter) then
    invalid_arg
      (Printf.sprintf
         "Chaos.schedule: down time %.0f us plus %d us jitter must be shorter than the %.0f us \
          crash slot"
         (Time.to_us_float down) jitter (Time.to_us_float slot));
  let rng = Rng.create ~seed in
  let evs = ref [] in
  for k = 0 to crashes - 1 do
    let node = 1 + Rng.int rng (nodes - 1) in
    let at = Time.(start + (slot * k) + Time.us (Rng.int rng jitter)) in
    evs :=
      { Faults.e_at = Time.(at + down); e_node = node; e_fault = Faults.Restart }
      :: { Faults.e_at = at; e_node = node; e_fault = Faults.Crash { scrub } }
      :: !evs
  done;
  List.rev !evs

(* Simulated time after which a run that has not drained is a structured
   failure, not a hang. *)
let watchdog = Time.s 1

let collect ?(rx_timeouts = 0) ~outcome ~completed ~checksum ~sched cluster =
  let crash_drops =
    Cluster.sum cluster (fun n -> Fabric.crash_drops (Cluster.fabric cluster) ~node:(Node.id n))
  in
  let recs = ref [] in
  for i = 0 to Cluster.size cluster - 1 do
    recs :=
      List.rev_append (Nic.recovery_latencies (Node.nic (Cluster.node cluster i))) !recs
  done;
  let recoveries = List.length !recs in
  let mean_recovery_us =
    if recoveries = 0 then 0.
    else
      List.fold_left (fun a t -> a +. Time.to_us_float t) 0. !recs
      /. float_of_int recoveries
  in
  let crashes =
    List.length
      (List.filter
         (fun e -> match e.Faults.e_fault with Faults.Crash _ -> true | Faults.Restart -> false)
         sched)
  in
  {
    outcome;
    completed;
    elapsed_us = Time.to_us_float (Cluster.elapsed cluster);
    crashes;
    restarts = List.length sched - crashes;
    retransmits = Cluster.retransmits cluster;
    crash_drops;
    recoveries;
    mean_recovery_us;
    rx_timeouts;
    checksum;
  }

(* Closed-loop run: Jacobi over the DSM. A crashed node's host freezes and
   its peers' reliable delivery retries into the dead window; after the
   restart the frozen fiber thaws and the barriers drain, so the application
   is expected to complete — with the crash paid for as elapsed time — and
   produce the fault-free checksum. The watchdog turns any unrecovered run
   into a structured failure. *)
let run_dsm ?(seed = 7) ?(procs = 8) ?(n = 128) ?(iterations = 8) ?(scrub = false)
    ?(kind = Runner.cni ()) ~crashes ~down () =
  let sched =
    schedule ~seed ~nodes:procs ~crashes ~start:(Time.us 200) ~slot:(Time.us 600) ~down
      ~scrub
  in
  let faults = { Faults.none with Faults.schedule = sched } in
  let params = Cni_machine.Params.default in
  let cluster = Cluster.create ~params ~faults ~nic_kind:kind ~nodes:procs () in
  let space = Space.create ~nprocs:procs ~page_bytes:params.Cni_machine.Params.page_bytes in
  let lrcs = Lrc.install cluster space () in
  match
    Jacobi.run ~watchdog cluster lrcs
      { Jacobi.default_config with Jacobi.n; iterations }
  with
  | r ->
      collect ~outcome:"ok" ~completed:true ~checksum:r.Jacobi.checksum ~sched cluster
  | exception e ->
      collect ~outcome:(Check.outcome_of_exn e) ~completed:false ~checksum:nan ~sched cluster

(* Open-loop run: a message ring that never blocks indefinitely. Each round
   every rank sends its token to its successor and collects its
   predecessor's with [Mp.recv_timeout]; a round whose predecessor is
   crashed times out and moves on (counted), so the ring degrades instead of
   stalling. The checksum folds every token actually received. *)
let run_ring ?(seed = 7) ?(nodes = 8) ?(rounds = 24) ?(scrub = false) ?(kind = Runner.cni ())
    ~crashes ~down () =
  let sched =
    schedule ~seed ~nodes ~crashes ~start:(Time.us 100) ~slot:(Time.us 600) ~down ~scrub
  in
  let faults = { Faults.none with Faults.schedule = sched } in
  let cluster = Cluster.create ~faults ~nic_kind:kind ~nodes () in
  let eps = Mp.install cluster in
  let rx_timeouts = ref 0 in
  let checksum = ref 0. in
  match
    Cluster.run_app ~watchdog cluster (fun node ->
        let ep = eps.(Node.id node) in
        let me = Mp.rank ep in
        let next = (me + 1) mod Mp.size ep in
        for r = 0 to rounds - 1 do
          Mp.send ep ~dst:next ~tag:r ((me * rounds) + r);
          match Mp.recv_timeout ep ~tag:r ~timeout:(Time.us 400) () with
          | Some e -> checksum := !checksum +. float_of_int e.Mp.value
          | None -> incr rx_timeouts
        done)
  with
  | () ->
      collect ~rx_timeouts:!rx_timeouts ~outcome:"ok" ~completed:true ~checksum:!checksum
        ~sched cluster
  | exception e ->
      collect ~rx_timeouts:!rx_timeouts ~outcome:(Check.outcome_of_exn e) ~completed:false
        ~checksum:nan ~sched cluster
