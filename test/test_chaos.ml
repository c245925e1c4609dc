(* Node crash/restart chaos: the fault schedule drives real crashes, the
   cluster recovers end to end, and every failure mode is structured — a
   crashed peer yields Peer_dead, a stuck run trips the quiescence
   watchdog, an open-loop receive times out. Never a hang. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Faults = Cni_atm.Faults
module Reliable = Cni_nic.Reliable
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Collectives = Cni_mp.Collectives
module Collectives_ir = Cni_mp.Collectives_ir
module Chaos = Cni_experiments.Chaos
module Runner = Cni_experiments.Runner

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let cni = `Cni Nic.default_cni_options

(* small closed-loop workload shared by the recovery tests *)
let dsm ?(seed = 7) ~crashes ~down () =
  Chaos.run_dsm ~seed ~procs:4 ~n:64 ~iterations:4 ~crashes ~down ()

let dsm_clean_checksum = lazy (dsm ~crashes:0 ~down:(Time.us 150) ()).Chaos.checksum

(* ------------------------------------------------------------------ *)
(* Closed-loop recovery                                                *)
(* ------------------------------------------------------------------ *)

let test_dsm_recovers () =
  let m = dsm ~crashes:2 ~down:(Time.us 300) () in
  checkb "run completed" true m.Chaos.completed;
  check Alcotest.string "outcome ok" "ok" m.Chaos.outcome;
  checki "both crashes fired" 2 m.Chaos.crashes;
  checki "both restarts fired" 2 m.Chaos.restarts;
  checkb "revived boards saw traffic again" true (m.Chaos.recoveries >= 1);
  check (Alcotest.float 0.0) "fault-free checksum reproduced"
    (Lazy.force dsm_clean_checksum) m.Chaos.checksum

let test_dsm_recovers_scrubbed () =
  let m = Chaos.run_dsm ~procs:4 ~n:64 ~iterations:4 ~scrub:true ~crashes:2
      ~down:(Time.us 300) ()
  in
  checkb "scrubbed run completed" true m.Chaos.completed;
  check (Alcotest.float 0.0) "checksum survives board scrubs"
    (Lazy.force dsm_clean_checksum) m.Chaos.checksum

let test_chaos_deterministic () =
  let run () = dsm ~seed:11 ~crashes:2 ~down:(Time.us 300) () in
  checkb "identical metrics across two invocations" true (compare (run ()) (run ()) = 0);
  let ring () = Chaos.run_ring ~seed:11 ~nodes:4 ~rounds:12 ~crashes:2 ~down:(Time.us 200) () in
  checkb "ring metrics deterministic too" true (compare (ring ()) (ring ()) = 0)

(* random schedule x the closed-loop app: whatever the fault timing, the
   run either completes with the fault-free checksum (exactly-once
   delivery across the crashes) or returns a structured failure — the
   property call returning at all proves the watchdog bounded it *)
let dsm_qcheck =
  QCheck.Test.make ~count:6 ~name:"random schedule: exactly-once or clean failure"
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 60 500))
    (fun (seed, crashes, down_us) ->
      let m = dsm ~seed ~crashes ~down:(Time.us down_us) () in
      if m.Chaos.completed then
        m.Chaos.outcome = "ok" && m.Chaos.checksum = Lazy.force dsm_clean_checksum
      else m.Chaos.outcome <> "ok")

(* Cholesky on the small stiffness matrix (8 CNI procs): lock-heavy DSM
   traffic, where a frame posted into the dead window — by the frozen
   host's last send or a handler finishing on the dying board — must wait
   for the restart, whichever node crashed *)
let cholesky_small =
  Runner.cholesky (lazy (Cni_apps.Sparse.stiffness_like ~n:300 ~dofs:3 ~seed:1))

let cholesky_checksum ?(kind = Runner.cni ()) schedule =
  let faults = if schedule = [] then None else Some { Faults.none with Faults.schedule } in
  (Runner.run ?faults ~kind ~procs:8 cholesky_small).Runner.checksum

let cholesky_clean_checksum = lazy (cholesky_checksum [])

let crash_window ~node ~at_us ~down_us ~scrub =
  [
    { Faults.e_at = Time.us at_us; e_node = node; e_fault = Faults.Crash { scrub } };
    { Faults.e_at = Time.us (at_us + down_us); e_node = node; e_fault = Faults.Restart };
  ]

let test_cholesky_recovers () =
  List.iter
    (fun node ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "node %d down 2000..2500 us: fault-free checksum" node)
        (Lazy.force cholesky_clean_checksum)
        (cholesky_checksum (crash_window ~node ~at_us:2000 ~down_us:500 ~scrub:false)))
    [ 3; 0 ]

(* A frame a board has acked must reach its handler whatever crash
   follows: the sender will never resend it. Node 4 acks a diff-reply at
   3008.9 us and a scrub at 3009 us empties its classifier while PATHFINDER's
   300 ns lookup is still being paid; with receive coalescing, node 1 crashes
   while acked frames wait in the queue for their batched host wakeup. *)
let acked_frame_survives kind ~node ~at_us ~down_us ~scrub () =
  check (Alcotest.float 0.0) "fault-free checksum"
    (Lazy.force cholesky_clean_checksum)
    (cholesky_checksum ~kind (crash_window ~node ~at_us ~down_us ~scrub))

let coalescing = Runner.cni ~aih:false ~rx_batch:8 ()

(* The schedule ranges of the qcheck below: node, crash time (us), time
   down (us), scrub draw (0 scrubs). QCheck's int shrinker moves toward 0,
   below [int_range 50 _], to schedules the fault model rejects; [toward]
   shrinks each value toward its range's lower bound and never past it.
   [int_range 0 n] draws exactly what [int_bound n] does, so each seed still
   draws the same schedules. *)
let crash_ranges = ((0, 7), (50, 20_050), (50, 3_050), (0, 3))

let toward lo x = QCheck.Iter.map (( + ) lo) (QCheck.Shrink.int (x - lo))

let crash_schedule =
  let (n0, n1), (a0, a1), (d0, d1), (s0, s1) = crash_ranges in
  QCheck.(
    set_shrink
      (Shrink.quad (toward n0) (toward a0) (toward d0) (toward s0))
      (quad (int_range n0 n1) (int_range a0 a1) (int_range d0 d1) (int_range s0 s1)))

let in_ranges (n, a, d, s) =
  let inside (lo, hi) x = lo <= x && x <= hi in
  let rn, ra, rd, rs = crash_ranges in
  inside rn n && inside ra a && inside rd d && inside rs s

let shrink_in_range_qcheck =
  QCheck.Test.make ~count:500 ~name:"crash schedule shrinks stay in range" crash_schedule
    (fun t ->
      let ok = ref true in
      Option.iter (fun shrink -> shrink t (fun c -> ok := !ok && in_ranges c))
        crash_schedule.QCheck.shrink;
      !ok)

let cholesky_qcheck =
  QCheck.Test.make ~count:16 ~name:"cholesky: any single crash recovers exactly once"
    crash_schedule (fun (node, at_us, down_us, scrub) ->
      cholesky_checksum (crash_window ~node ~at_us ~down_us ~scrub:(scrub = 0))
      = Lazy.force cholesky_clean_checksum)

(* open loop: the ring degrades by timing rounds out; duplicate delivery
   would inflate the checksum past the fault-free sum *)
let ring_qcheck =
  let clean =
    lazy (Chaos.run_ring ~nodes:4 ~rounds:12 ~crashes:0 ~down:(Time.us 150) ()).Chaos.checksum
  in
  QCheck.Test.make ~count:6 ~name:"ring degrades without hanging or duplicating"
    QCheck.(pair (int_range 0 1000) (int_range 1 3))
    (fun (seed, crashes) ->
      let m = Chaos.run_ring ~seed ~nodes:4 ~rounds:12 ~crashes ~down:(Time.us 200) () in
      m.Chaos.completed && m.Chaos.checksum <= Lazy.force clean)

(* ------------------------------------------------------------------ *)
(* Board state across scrubbed crashes                                 *)
(* ------------------------------------------------------------------ *)

let test_scrub_cycles_preserve_board_memory () =
  (* three scrub crash/restart cycles against node 1 while node 0 keeps
     sending: the install-log replay must restore the wiped handlers and
     the parked-descriptor re-send must keep delivery exactly-once *)
  let cycles = 3 in
  let schedule =
    List.concat
      (List.init cycles (fun k ->
           let at = Time.(us 100 + (us 600 * k)) in
           [
             { Faults.e_at = at; e_node = 1; e_fault = Faults.Crash { scrub = true } };
             { Faults.e_at = Time.(at + us 200); e_node = 1; e_fault = Faults.Restart };
           ]))
  in
  let faults = { Faults.none with Faults.schedule } in
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  let nic1 = Node.nic (Cluster.node cluster 1) in
  let code_bytes = Nic.handler_code_bytes nic1 in
  checkb "handlers charge board memory" true (code_bytes > 0);
  let got = ref 0 in
  Cluster.run_app ~watchdog:(Time.s 1) cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then
        for r = 0 to 5 do
          Mp.send ep ~dst:1 ~tag:r (r * 7);
          Engine.delay (Time.us 300)
        done
      else
        for r = 0 to 5 do
          got := !got + (Mp.recv ep ~tag:r ()).Mp.value
        done);
  checki "every message delivered exactly once across the crashes" 105 !got;
  checki "board memory restored by the install-log replay" code_bytes
    (Nic.handler_code_bytes nic1);
  match List.assoc_opt "node1/nic/restarts" (Cluster.metrics_snapshot cluster) with
  | Some (Cni_engine.Stats.Registry.Counter_v n) -> checki "one restart counted per cycle" cycles n
  | Some _ | None -> Alcotest.fail "node1/nic/restarts not registered"

(* ------------------------------------------------------------------ *)
(* Collectives around a crash                                          *)
(* ------------------------------------------------------------------ *)

(* Two allreduce episodes 1 ms apart on a 4-node CNI cluster under a crash
   schedule, through the closure tree or the firmware tree; each node's two
   results, or the run's exception. *)
let two_allreduces ~tree schedule =
  let faults = { Faults.none with Faults.schedule } in
  let cluster : int Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:4 () in
  let allreduce =
    match tree with
    | `Closure ->
        let eps = Collectives.install ~inject:Fun.id ~project:Fun.id cluster in
        fun r v -> Collectives.allreduce eps.(r) ~op:( + ) v
    | `Firmware ->
        let eps =
          Collectives_ir.install ~op:Collectives_ir.Sum ~inject:Fun.id ~project:Fun.id cluster
        in
        fun r v -> Collectives_ir.allreduce eps.(r) v
  in
  let sums = Array.make 4 (0, 0) in
  Cluster.run_app ~watchdog:(Time.s 1) cluster (fun node ->
      let r = Node.id node in
      let a = allreduce r (r + 1) in
      Engine.delay (Time.us 1000);
      let b = allreduce r ((r + 1) * 10) in
      sums.(r) <- (a, b));
  sums

(* node 2 crashes at [at] us and, given [down], restarts [down] us later *)
let crash_node2 ?down ~scrub at =
  { Faults.e_at = Time.us at; e_node = 2; e_fault = Faults.Crash { scrub } }
  :: Option.fold down ~none:[] ~some:(fun d ->
         [ { Faults.e_at = Time.us (at + d); e_node = 2; e_fault = Faults.Restart } ])

let trees = [ ("closure", `Closure); ("firmware", `Firmware) ]

let each_tree_and_scrub f =
  List.iter (fun scrub -> List.iter (fun (name, tree) -> f ~scrub name tree) trees) [ false; true ]

let test_collective_parity_between_crashes () =
  (* node 2 goes down early in the first episode, across its start, for
     longer than the retransmit timeout, inside the second episode, and
     between the two: the tree waits for the rank, the reliable layer
     carries its frames across the crash, and every node gets the
     fault-free results *)
  List.iter
    (fun (at, down) ->
      each_tree_and_scrub (fun ~scrub name tree ->
          Alcotest.(check (array (pair int int)))
            (Printf.sprintf "%s tree, node 2 down %d us from %d us%s" name down at
               (if scrub then ", scrubbed" else ""))
            (Array.make 4 (10, 100))
            (two_allreduces ~tree (crash_node2 ~down ~scrub at))))
    [ (2, 20); (5, 20); (10, 20); (3, 50); (20, 2000); (1030, 20); (300, 300) ]

let test_collective_rank_never_restarts () =
  (* a rank that never comes back ends the run in a structured failure,
     never in a partial result from the live ranks *)
  List.iter
    (fun at ->
      each_tree_and_scrub (fun ~scrub name tree ->
          match two_allreduces ~tree (crash_node2 ~scrub at) with
          | sums ->
              Alcotest.failf
                "%s tree, node 2 down for good from %d us%s: completed, node 0 got %d/%d" name at
                (if scrub then ", scrubbed" else "")
                (fst sums.(0)) (snd sums.(0))
          | exception Cluster.Deadlock _ -> ()
          | exception Engine.Fiber_failure (_, Reliable.Peer_dead _) -> ()))
    [ 0; 2; 500 ]

(* ------------------------------------------------------------------ *)
(* Structured failure, never a hang                                    *)
(* ------------------------------------------------------------------ *)

let test_watchdog_fires_on_deliberate_deadlock () =
  (* both ranks wait on a tag nobody sends while a self-rearming timer
     keeps the event queue busy: without the watchdog this spins forever *)
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  let eng = Cluster.engine cluster in
  let rec tick () = Engine.after eng (Time.us 50) tick in
  tick ();
  match
    Cluster.run_app ~watchdog:(Time.ms 1) cluster (fun node ->
        ignore (Mp.recv eps.(Node.id node) ~tag:9 ()))
  with
  | () -> Alcotest.fail "expected Quiescence_timeout"
  | exception Engine.Quiescence_timeout { limit; _ } ->
      checki "fired at the configured limit" (Time.to_ps (Time.ms 1)) (Time.to_ps limit)

let test_peer_dead_mid_send () =
  (* node 1 crashes and never restarts; node 0's send must exhaust its
     budget and surface Peer_dead — not Delivery_failed, not a hang *)
  let faults =
    {
      Faults.none with
      Faults.schedule = [ { Faults.e_at = Time.us 50; e_node = 1; e_fault = Faults.Crash { scrub = false } } ];
    }
  in
  let reliability =
    { Reliable.default with Reliable.timeout = Time.us 50; max_tries = 4; max_rto = Time.us 400 }
  in
  let cluster : int Mp.envelope Cluster.t =
    Cluster.create ~faults ~reliability ~nic_kind:cni ~nodes:2 ()
  in
  let eps = Mp.install cluster in
  match
    Cluster.run_app ~watchdog:(Time.s 1) cluster (fun node ->
        let ep = eps.(Node.id node) in
        if Mp.rank ep = 0 then begin
          Engine.delay (Time.us 100);
          Mp.send ep ~dst:1 ~tag:1 5
        end
        else ignore (Mp.recv ep ~tag:1 ()))
  with
  | () -> Alcotest.fail "expected Peer_dead"
  | exception Engine.Fiber_failure (_, Reliable.Peer_dead f) ->
      checki "failure names the dead peer" 1 f.Reliable.dst;
      checki "budget was spent first" 4 f.Reliable.tries

(* ------------------------------------------------------------------ *)
(* recv_timeout                                                        *)
(* ------------------------------------------------------------------ *)

let test_recv_timeout () =
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  Cluster.run_app cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then begin
        Engine.delay (Time.us 200);
        Mp.send ep ~dst:1 ~tag:3 33;
        Mp.send ep ~dst:1 ~tag:4 44
      end
      else begin
        (try
           ignore (Mp.recv_timeout ep ~tag:3 ~timeout:Time.zero ());
           Alcotest.fail "non-positive timeout accepted"
         with Invalid_argument _ -> ());
        (match Mp.recv_timeout ep ~tag:3 ~timeout:(Time.us 10) () with
        | None -> ()
        | Some _ -> Alcotest.fail "nothing was sent yet");
        Engine.delay (Time.us 500);
        (* the tag-3 message arrived after the waiter gave up: it must be
           parked in the mailbox, not handed to the dead waiter *)
        (match Mp.try_recv ep ~tag:3 () with
        | Some e -> checki "late message parked in the mailbox" 33 e.Mp.value
        | None -> Alcotest.fail "late message was lost");
        match Mp.recv_timeout ep ~tag:4 ~timeout:(Time.ms 5) () with
        | Some e -> checki "delivery before the deadline" 44 e.Mp.value
        | None -> Alcotest.fail "timed out despite delivery"
      end)

(* ------------------------------------------------------------------ *)
(* Backoff cap                                                         *)
(* ------------------------------------------------------------------ *)

let test_backoff_cap_counted () =
  (* a 3 ms outage against a 200 us RTO ceiling: the retransmission timer
     must clamp (and count the clamps) instead of doubling past the run *)
  let faults =
    {
      Faults.none with
      Faults.link_down = [ { Faults.w_node = 1; w_from = Time.zero; w_upto = Time.ms 3 } ];
    }
  in
  let reliability =
    { Reliable.default with Reliable.timeout = Time.us 50; max_tries = 40; max_rto = Time.us 200 }
  in
  let cluster : int Mp.envelope Cluster.t =
    Cluster.create ~faults ~reliability ~nic_kind:cni ~nodes:2 ()
  in
  let eps = Mp.install cluster in
  let got = ref (-1) in
  Cluster.run_app cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:1 99
      else got := (Mp.recv ep ~tag:1 ()).Mp.value);
  checki "delivered after the outage" 99 !got;
  match Nic.rel_stats (Node.nic (Cluster.node cluster 0)) with
  | None -> Alcotest.fail "reliability should be on"
  | Some s ->
      checkb "retransmissions carried the frame across" true (s.Nic.retransmits > 0);
      checkb "capped arms were counted" true (s.Nic.rto_capped > 0)

let () =
  Alcotest.run "chaos"
    [
      ( "recovery",
        [
          Alcotest.test_case "dsm recovers from crashes" `Quick test_dsm_recovers;
          Alcotest.test_case "dsm recovers from scrubbed crashes" `Quick
            test_dsm_recovers_scrubbed;
          Alcotest.test_case "chaos metrics deterministic" `Quick test_chaos_deterministic;
          QCheck_alcotest.to_alcotest dsm_qcheck;
          QCheck_alcotest.to_alcotest ring_qcheck;
          Alcotest.test_case "cholesky recovers from node 3 and node 0 crashes" `Quick
            test_cholesky_recovers;
          QCheck_alcotest.to_alcotest cholesky_qcheck;
          QCheck_alcotest.to_alcotest shrink_in_range_qcheck;
          Alcotest.test_case "scrub mid-classify: acked frame delivered" `Quick
            (acked_frame_survives (Runner.cni ()) ~node:4 ~at_us:3009 ~down_us:2791 ~scrub:true);
          Alcotest.test_case "crash, rx batch: acked frames delivered" `Quick
            (acked_frame_survives coalescing ~node:1 ~at_us:2593 ~down_us:2335 ~scrub:false);
          Alcotest.test_case "scrub, rx batch: acked frames delivered" `Quick
            (acked_frame_survives coalescing ~node:1 ~at_us:2593 ~down_us:2335 ~scrub:true);
        ] );
      ( "board state",
        [
          Alcotest.test_case "scrub cycles preserve board memory" `Quick
            test_scrub_cycles_preserve_board_memory;
          Alcotest.test_case "collective parity between crashes" `Quick
            test_collective_parity_between_crashes;
          Alcotest.test_case "collective with a rank that never restarts" `Quick
            test_collective_rank_never_restarts;
        ] );
      ( "structured failure",
        [
          Alcotest.test_case "watchdog fires on deliberate deadlock" `Quick
            test_watchdog_fires_on_deliberate_deadlock;
          Alcotest.test_case "peer dead mid-send" `Quick test_peer_dead_mid_send;
        ] );
      ( "timeouts",
        [
          Alcotest.test_case "recv_timeout" `Quick test_recv_timeout;
          Alcotest.test_case "backoff cap counted" `Quick test_backoff_cap_counted;
        ] );
    ]
