module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Nic = Cni_nic.Nic

(* Each ablation is a table of rows, one run per row. The rows go through a
   few shared pieces: [run], the cell printers below, [cross] for tables that
   pair every application with every configuration, and [on_off] for the
   paper's own method of running one application with a mechanism on, then
   off, against a standard board. *)

let cholesky = Runner.cholesky Runner.bcsstk14
let water = Runner.water ~molecules:216
let jacobi = Runner.jacobi ~n:512 ~iterations:12
let apps = [ ("Jacobi 512", jacobi); ("Water 216", water); ("Cholesky bcsstk14-like", cholesky) ]
let apps8 = List.map (fun (name, app) -> (name ^ " (8 procs)", app)) apps

(* one application run on 8 processors unless the row says otherwise *)
let run ?params ?faults ?reliability ?topology ?barrier_impl ?(procs = 8) kind app =
  Runner.run ?params ?faults ?reliability ?topology ?barrier_impl ~kind ~procs app

let elapsed r = Format.asprintf "%a" Time.pp r.Runner.elapsed
let hit r = Report.f1 r.Runner.hit_ratio
let count = string_of_int
let checksum r = Printf.sprintf "%.10g" r.Runner.checksum
let ratio a b = Report.f2 (Time.to_s_float a /. Time.to_s_float b)

(* [f x y] for every [x] of [xs] and, within it, every [y] of [ys] *)
let cross xs ys f = List.concat_map (fun x -> List.map (f x) ys) xs

(* [rows] are (configuration, machine parameters, NIC kind) *)
let on_off ~id ~title ~note app rows =
  ( id,
    fun () ->
      Report.make ~id ~title ~columns:[ "configuration"; "elapsed"; "cache-hit-%" ] ~notes:[ note ]
        (List.map
           (fun (name, params, kind) ->
             let r = run ~params kind app in
             [ name; elapsed r; hit r ])
           rows) )

let write_policy policy = { Params.default with Params.cache_policy = policy }

(* The receive wakeup policy, measured two ways: a synthetic arrival-rate
   sweep where a computing host receives paced frames (isolating the wakeup
   cost of each policy at a known rate), then the three applications, whose
   checksums double as proof the policy changes timing only. *)
let rx_policy () =
  let policies =
    List.map (fun (name, rx) -> (name, Scenario.to_rx_policy rx)) Scenario.rx_names
  in
  let synthetic (label, gap, frames, rx_batch) (pname, policy) =
    let p = Microbench.rx_policy_sweep ~policy ~gap ~count:frames ~rx_batch () in
    let s = p.Microbench.rx_stats in
    [
      "synthetic, " ^ label; pname; count s.Nic.interrupts; count s.Nic.polls;
      count s.Nic.wasted_polls; count s.Nic.coalesced; Report.f1 p.Microbench.rx_latency_us; "-";
    ]
  in
  let hot batch = (Printf.sprintf "hot arrivals, batch %d" batch, Time.us 2, 200, batch) in
  Report.make ~id:"ablation-rxpolicy"
    ~title:"Receive wakeup policy: interrupt vs poll vs hybrid vs adaptive (host handlers)"
    ~columns:
      [
        "workload"; "policy"; "interrupts"; "polls"; "wasted-polls"; "coalesced";
        "latency-us/elapsed"; "checksum";
      ]
    ~notes:
      [
        "synthetic rows: node 0 paces 24-byte frames at the given gap; the receiving host \
         computes throughout, so every interrupt steals from it and every poll-mode ring \
         check is visible";
        "adaptive tracks interrupt-only when idle (no wasted polls) and converges to poll \
         mode when hot (host interrupts stop scaling with the arrival rate); hysteresis \
         keeps one outlier gap from flapping the mode";
        "batch rows coalesce frames that arrive during a wakeup's own latency into one \
         drain of the receive queue";
        "application rows (AIH off, so every DSM message crosses the host path): identical \
         checksums across policies — the policy moves time, never data";
      ]
    (cross
       [
         ("hot (2us) arrivals", Time.us 2, 200, 1);
         ("medium (50us) arrivals", Time.us 50, 120, 1);
         ("idle (1ms) arrivals", Time.ms 1, 40, 1);
       ]
       policies synthetic
    @ cross [ hot 4; hot 8 ] [ ("adaptive", Nic.Rx_adaptive Nic.default_rx_adaptive) ] synthetic
    @ cross apps8 policies (fun (aname, app) (pname, rx_policy) ->
          let r = run (Runner.cni ~aih:false ~rx_policy ()) app in
          [
            aname; pname; count r.Runner.host_interrupts; count r.Runner.polls;
            count r.Runner.wasted_polls; "-"; elapsed r; checksum r;
          ]))

(* wall-clock cost of the simulator's classification step as patterns grow:
   the indexed DAG should be flat where the linear reference scan is O(n) *)
let classifier_bench () =
  Report.make ~id:"microbench-classifier"
    ~title:"PATHFINDER classification dispatch (wall-clock, one pattern per channel)"
    ~columns:[ "patterns"; "indexed-ns/op"; "linear-ns/op"; "speedup" ]
    ~notes:
      [
        "indexed: per-node hashtable keyed by field spec (offset/len/mask), then by masked \
         value — O(pattern depth); linear: priority-ordered scan of every live pattern, \
         the reference semantics the property tests hold the DAG to";
      ]
    (List.map
       (fun n ->
         let p = Microbench.classifier_ops ~patterns:n () in
         [
           count n;
           Report.f1 p.Microbench.indexed_ns;
           Report.f1 p.Microbench.linear_ns;
           Report.f2 p.Microbench.cls_speedup;
         ])
       [ 1; 16; 256 ])

(* how much of the standard interface's deficit is the interrupt cost?
   (Table 1's garbled row motivates checking the sensitivity) *)
let interrupt_sensitivity () =
  Report.make ~id:"ablation-interrupt"
    ~title:"Interrupt-latency sensitivity (8-processor Cholesky bcsstk14-like)"
    ~columns:[ "interrupt-us"; "cni"; "standard"; "std/cni" ]
    ~notes:
      [
        "the CNI barely notices (its handlers run on the board); the standard interface \
         degrades with every microsecond of interrupt cost";
      ]
    (List.map
       (fun us ->
         let params = { Params.default with Params.interrupt_latency = Time.us us } in
         let rc = run ~params (Runner.cni ()) cholesky in
         let rs = run ~params Runner.standard cholesky in
         [ count us; elapsed rc; elapsed rs; ratio rs.Runner.elapsed rc.Runner.elapsed ])
       [ 10; 20; 40; 80 ])

(* the three generations in one table: standard -> OSIRIS (user-level ADC,
   software demux, interrupt-only) -> CNI (PATHFINDER + MC + AIH); the
   latency rows use host-side delivery on every interface *)
let interface_evolution () =
  let interfaces ~aih =
    [ ("standard", Runner.standard); ("OSIRIS", Runner.osiris); ("CNI", Runner.cni ~aih ()) ]
  in
  Report.make ~id:"ablation-evolution" ~title:"Interface evolution: standard -> OSIRIS -> CNI"
    ~columns:[ "workload"; "interface"; "elapsed"; "cache-hit-%" ]
    ~notes:
      [
        "OSIRIS (the board the CNI extends) removes the kernel from the messaging path but \
         still interrupts per packet, so its DSM runs stay near the standard board — the \
         classifier, Message Cache and on-board handlers are what move the applications";
      ]
    (List.map
       (fun (iface, kind) ->
         let t = Microbench.latency ~kind ~bytes:2048 () in
         [ "2KB one-way latency"; iface; Format.asprintf "%a" Time.pp t; "-" ])
       (interfaces ~aih:false)
    @ cross
        [ ("Water 216 (8 procs)", water); ("Cholesky bcsstk14-like (8 procs)", cholesky) ]
        (interfaces ~aih:true)
        (fun (name, app) (iface, kind) ->
          let r = run kind app in
          [ name; iface; elapsed r; hit r ]))

(* ordering matters: fill-in drives both the flop count and the page
   traffic; RCM recovers most of what a bad ordering loses *)
let ordering () =
  let module Sparse = Cni_apps.Sparse in
  let a = Sparse.stiffness_like ~n:600 ~dofs:3 ~seed:21 in
  let scrambled = Sparse.permute a ~perm:(Array.init 600 (fun i -> (i * 389) mod 600)) in
  let rcm = Sparse.permute scrambled ~perm:(Sparse.rcm scrambled) in
  Report.make ~id:"ablation-ordering"
    ~title:"Elimination ordering (8-processor CNI Cholesky, n=600 stiffness-like)"
    ~columns:[ "ordering"; "nnz(L)"; "bandwidth"; "elapsed" ]
    ~notes:[ "fill-in controls both the flop count and the migrating pages" ]
    (List.map
       (fun (name, m) ->
         let r = run (Runner.cni ()) (Runner.cholesky (Lazy.from_val m)) in
         [ name; count (Sparse.nnz (Sparse.symbolic m)); count (Sparse.bandwidth m); elapsed r ])
       [ ("natural (banded)", a); ("scrambled", scrambled); ("RCM of scrambled", rcm) ])

(* graceful degradation on a lossy fabric: sweep the per-cell loss rate with
   the reliability protocol on (also at zero loss, so the ack traffic is in
   the baseline and the slowdown column isolates loss recovery). The standard
   interface degrades faster: every retransmission, ack and duplicate costs
   it a host interrupt + kernel path, while the CNI boards recover in
   firmware. *)
let faults () =
  let module Faults = Cni_atm.Faults in
  let module Reliable = Cni_nic.Reliable in
  let sweep (aname, app) (kname, kind) =
    let base = ref None in
    List.map
      (fun loss ->
        let faults =
          if loss > 0. then Some { Faults.none with Faults.cell_loss = loss } else None
        in
        let cell = if loss = 0. then "0" else Printf.sprintf "%.0e" loss in
        match run ?faults ~reliability:Reliable.default kind app with
        | r ->
            if loss = 0. then base := Some r.Runner.elapsed;
            [
              aname;
              kname;
              cell;
              "ok";
              elapsed r;
              count r.Runner.retransmits;
              Option.fold ~none:"-" ~some:(ratio r.Runner.elapsed) !base;
            ]
        | exception Cni_engine.Engine.Fiber_failure (_, Reliable.Delivery_failed _) ->
            [ aname; kname; cell; "failed"; "-"; "-"; "-" ])
      [ 0.; 1e-6; 1e-5; 1e-4; 1e-3 ]
  in
  Report.make ~id:"ablation-faults"
    ~title:"Graceful degradation under cell loss (8 processors, reliable delivery)"
    ~columns:[ "workload"; "interface"; "cell-loss"; "run"; "elapsed"; "retransmits"; "slowdown" ]
    ~notes:
      [
        "slowdown is relative to the same interface at zero loss with the reliability \
         protocol enabled, so it isolates loss recovery from ack overhead";
        "each retransmission, ack and duplicate costs the standard interface a host \
         interrupt + kernel path, where the CNI recovers in board firmware; at high loss \
         the retransmit timeout stalling the critical path dominates both";
      ]
    (List.concat (cross apps [ ("cni", Runner.cni ()); ("standard", Runner.standard) ] sweep))

(* Node crash/restart chaos: seeded fault schedules against a closed-loop
   DSM application (expected to recover and finish with the fault-free
   checksum) and an open-loop message ring (expected to degrade by timing
   out rounds, never to hang). Every row is deterministic in the seed, so
   the CI smoke can diff two invocations. *)
let chaos () =
  let row name m =
    [
      name; count m.Chaos.crashes; m.Chaos.outcome; Report.f1 m.Chaos.elapsed_us;
      count m.Chaos.retransmits; count m.Chaos.crash_drops; count m.Chaos.recoveries;
      Report.f1 m.Chaos.mean_recovery_us; count m.Chaos.rx_timeouts;
      (if Float.is_nan m.Chaos.checksum then "-" else Report.f2 m.Chaos.checksum);
    ]
  in
  let sweep workload f =
    List.map
      (fun (crashes, down, dname) ->
        row (Printf.sprintf "%s, %d crash(es), down %s" workload crashes dname) (f ~crashes ~down))
      [ (0, Time.us 150, "-"); (1, Time.us 150, "150us"); (2, Time.us 400, "400us") ]
  in
  Report.make ~id:"ablation-chaos"
    ~title:"Crash/restart chaos: recovery (closed loop) and degradation (open loop)"
    ~columns:
      [
        "workload"; "crashes"; "run"; "elapsed-us"; "retransmits"; "crash-drops";
        "recoveries"; "mean-recovery-us"; "rx-timeouts"; "checksum";
      ]
    ~notes:
      [
        "closed loop: crashed hosts freeze and thaw, reliable delivery retries across \
         the dead window, so the checksum must match the zero-crash row";
        "scrub crashes additionally wipe board memory; handlers are re-verified and \
         re-installed from the install log at restart";
        "open loop: every ring receive is a recv_timeout, so a dead predecessor costs \
         timed-out rounds (degradation), never a hang; the watchdog converts any \
         residual hang into a structured failure row";
      ]
    (sweep "Jacobi 128 DSM" (fun ~crashes ~down -> Chaos.run_dsm ~crashes ~down ())
    @ [
        row "Jacobi 128 DSM, 2 scrub crashes, down 400us"
          (Chaos.run_dsm ~scrub:true ~crashes:2 ~down:(Time.us 400) ());
      ]
    @ sweep "Mp ring 8x24" (fun ~crashes ~down -> Chaos.run_ring ~crashes ~down ()))

(* NIC-resident collectives (the combining tree as AIH code) against the
   host-driven implementations: raw barrier / allreduce latency as the node
   count grows, then the three applications with the DSM barrier switched
   between the centralised node-0 manager and the tree. *)
let collectives () =
  Report.make ~id:"ablation-collectives"
    ~title:"NIC-resident collectives: combining tree vs host-driven"
    ~columns:
      [ "workload"; "configuration"; "barrier-us"; "allreduce-us"; "elapsed"; "interrupts" ]
    ~notes:
      [
        "the NIC tree combines contributions on the boards (AIH code): a CNI episode takes \
         zero host interrupts; the standard interface interrupts per tree packet either way";
        "application rows switch the DSM barrier between the centralised node-0 manager and \
         the tree allreduce of (vector clock, write notices)";
      ]
    (cross [ 2; 4; 8; 16 ]
       [
         ("CNI, host-driven", Runner.cni (), false);
         ("CNI, NIC tree", Runner.cni (), true);
         ("standard, host-driven", Runner.standard, false);
         ("standard, NIC tree", Runner.standard, true);
       ]
       (fun nodes (name, kind, nic) ->
         let p = Microbench.collective_latency ~kind ~nodes ~nic () in
         [
           Printf.sprintf "barrier+allreduce (%d nodes)" nodes;
           name;
           Report.f1 p.Microbench.barrier_us;
           Report.f1 p.Microbench.allreduce_us;
           "-";
           count p.Microbench.interrupts;
         ])
    @ cross apps8
        [ ("CNI, centralised barrier", `Centralised); ("CNI, NIC-tree barrier", `Nic_collective) ]
        (fun (aname, app) (bname, barrier_impl) ->
          let r = run ~barrier_impl (Runner.cni ()) app in
          [ aname; bname; "-"; "-"; elapsed r; count r.Runner.host_interrupts ]))

(* Fabric topology x combining-tree fanout: the collectives' tree latency
   under each fabric shape at 64 nodes, then Jacobi at 256 processors per
   topology. The checksum column is the seed-equivalence witness: routing
   frames through a fat-tree or torus reshuffles timing (hop-waits,
   conflicts) but must not change any numeric result. *)
let topology () =
  let module Topology = Cni_atm.Topology in
  let topologies =
    [
      ("single switch", "single", Topology.Single);
      ("fat-tree", "fat-tree", Topology.Fat_tree { leaf_radix = 16 });
      ("3d-torus", "torus", Topology.Torus { dims = None });
    ]
  in
  let runs =
    List.map
      (fun (tname, slug, topology) ->
        (tname, slug, run ~topology ~procs:256 (Runner.cni ()) jacobi))
      topologies
  in
  (* all deterministic, so the BENCH compare gate pins them exactly: the
     checksums must stay equal across topologies (routing moves time, never
     data) and the single-switch hop-wait count must stay zero (conflicts
     counted, not charged — the seed-equivalence contract) *)
  let metrics =
    List.concat_map
      (fun (_, slug, r) ->
        let key k = "jacobi256-" ^ slug ^ "-" ^ k in
        [
          (key "checksum", r.Runner.checksum);
          (key "hop-waits", float_of_int r.Runner.hop_waits);
          (key "conflicts", float_of_int r.Runner.banyan_conflicts);
        ])
      runs
  in
  Report.make ~id:"ablation-topology"
    ~title:"Fabric topology x combining-tree fanout (per-hop contention model)"
    ~metrics
    ~columns:
      [
        "workload"; "configuration"; "barrier-us"; "allreduce-us"; "elapsed"; "hop-waits";
        "conflicts"; "checksum";
      ]
    ~notes:
      [
        "single-switch rows reproduce the seed timing bit-for-bit: banyan conflicts are \
         counted but not charged because the paper's 500ns switch latency already includes \
         average blocking; multi-switch rows charge output-port and internal-wire contention \
         per hop";
        "identical Jacobi checksums across topologies show routing changes timing only; \
         hop-waits counts hops serialised behind a busy output port, conflicts the internal \
         banyan-stage collisions";
      ]
    (cross topologies [ 2; 4; 8 ] (fun (tname, _, topology) fanout ->
         let p =
           Microbench.collective_latency ~kind:(Runner.cni ()) ~topology ~fanout ~nodes:64
             ~nic:true ()
         in
         [
           "barrier+allreduce (64 nodes, NIC tree)";
           Printf.sprintf "%s, fanout %d" tname fanout;
           Report.f1 p.Microbench.barrier_us;
           Report.f1 p.Microbench.allreduce_us;
           "-"; "-"; "-"; "-";
         ])
    @ List.map
        (fun (tname, _, r) ->
          [
            "Jacobi 512 (256 procs)";
            tname;
            "-";
            "-";
            elapsed r;
            count r.Runner.hop_waits;
            count r.Runner.banyan_conflicts;
            checksum r;
          ])
        runs)

(* Open-loop serving tails: offered load x receive policy x topology, on a
   lossy fabric (the PR 2 fault model, so the reliability layer is live).
   Message delivery runs on the host (aih off) — with the handler on the
   board the receive policy never fires and every row would tie. The whole
   sweep is deterministic, so every quantile is pinned as a metric. *)
let serving () =
  let module Topology = Cni_atm.Topology in
  let module Kv = Cni_apps.Kv_serve in
  let requests = if !Figures.quick then 30 else 80 in
  let runs =
    List.concat_map
      (fun (tname, topology) ->
        cross [ ("moderate", 20_000.); ("high", 60_000.) ] Scenario.rx_names
          (fun (lname, rate) (pname, rx_policy) ->
            let profile =
              {
                Scenario.default with
                Scenario.name = "ablation-serving";
                requests_per_client = requests;
                arrival = Arrival.Poisson { rate_per_s = rate };
                aih = false;
                rx_policy;
                topology;
                faults = Cni_atm.Faults.with_loss ~seed:11 1e-4;
              }
            in
            ([ tname; lname; pname ], Scenario.run profile)))
      [ ("single", Topology.Single); ("torus", Topology.Torus { dims = None }) ]
  in
  let us = Printf.sprintf "%.3f" in
  Report.make ~id:"ablation-serving"
    ~title:"Open-loop serving tails: offered load x rx policy x topology (lossy fabric)"
    ~metrics:
      (List.concat_map
         (fun (labels, r) ->
           let key q = String.concat "-" (("serving" :: labels) @ [ q ]) in
           [ (key "p50us", r.Kv.p50_us); (key "p99us", r.Kv.p99_us); (key "p999us", r.Kv.p999_us) ])
         runs)
    ~columns:[ "topology"; "load"; "rx-policy"; "p50-us"; "p99-us"; "p999-us"; "max-us"; "retx" ]
    ~notes:
      [
        "12 clients + 4 servers, Poisson arrivals, handlers on the host (aih off) so the \
         receive policy is on the delivery path; cell loss 1e-4 keeps the reliability \
         layer live";
        "latency is measured from each request's scheduled generation time, so queueing \
         delay (including coordinated-omission stalls) is charged to the tail";
      ]
    (List.map
       (fun (labels, r) ->
         labels @ List.map us [ r.Kv.p50_us; r.Kv.p99_us; r.Kv.p999_us; r.Kv.max_us ]
         @ [ count r.Kv.retransmits ])
       runs)

(* Reliable delivery compiled onto the NIC: the closure reliability layer
   against the streaming-firmware endpoints (Reliable_ir), on both
   interfaces, clean and lossy. Each row pair runs the same lockstep parity
   ring, so the fault model hands both implementations identical per-frame
   verdicts; the parity column shows behavioural equality, and the
   deterministic firmware checksums are pinned as metrics. *)
let reliable_firmware () =
  let module Flow = Reliable_flow in
  let module Faults = Cni_atm.Faults in
  let runs =
    cross [ ("cni", Runner.cni ()); ("standard", Runner.standard) ]
      [
        ("clean", "clean", None);
        ("loss 3e-2", "lossy", Some { Faults.none with Faults.seed = 2; cell_loss = 3e-2 });
      ]
      (fun (iname, nic) (lname, slug, faults) ->
        let cfg = { Flow.default with Flow.nic; messages = 10; faults } in
        (iname, lname, iname ^ "-" ^ slug, Flow.run Flow.Closure cfg, Flow.run Flow.Firmware cfg))
  in
  let parity (_, _, _, a, b) = a.Flow.checksum = b.Flow.checksum in
  let row iname lname impl (o : Flow.outcome) parity =
    let retx, dups =
      Array.fold_left
        (fun (r, d) c -> (r + c.Flow.retransmits, d + c.Flow.rx_duplicates))
        (0, 0) o.Flow.per_node
    in
    [
      iname; lname; impl; Report.f1 (float_of_int o.Flow.elapsed_ps /. 1e6); count retx;
      count dups; count o.Flow.checksum; parity;
    ]
  in
  let p = Microbench.reliable_firmware_activation () in
  Report.make ~id:"ablation-reliable-fw"
    ~title:"Reliable delivery: closure layer vs streaming firmware (lockstep parity ring)"
    ~metrics:
      (List.concat_map
         (fun ((_, _, slug, _, b) as run) ->
           [
             ("reliable-fw-" ^ slug ^ "-checksum", float_of_int b.Flow.checksum);
             ("reliable-fw-" ^ slug ^ "-parity", if parity run then 1. else 0.);
           ])
         runs
      @ [
          ("reliable-fw-rx-wcet-cycles", float_of_int p.Microbench.rel_wcet_nic_cycles);
          ( "reliable-fw-rx-wcet-perbyte-milli",
            float_of_int p.Microbench.rel_wcet_per_byte_milli );
        ])
    ~columns:
      [ "interface"; "fabric"; "impl"; "elapsed-us"; "retx"; "dups"; "checksum"; "parity" ]
    ~notes:
      [
        "each pair runs the identical lockstep ring (2 nodes x 10 messages), so seeded \
         faults hand both implementations the same per-frame verdicts; parity = the \
         firmware checksum equals the closure checksum (delivery outcomes + counters)";
        "on the standard interface the firmware runs host-interpreted behind the wakeup \
         path — parity must still hold, only the clock moves";
        "the per-message row is the reliable_firmware_activation microbench: clean-fabric \
         cost per delivered message, with the streaming rx certificate that admitted the \
         firmware (per-activation and per-byte WCET)";
      ]
    (List.concat_map
       (fun ((iname, lname, _, a, b) as run) ->
         [
           row iname lname "closure" a "-";
           row iname lname "firmware" b (if parity run then "ok" else "MISMATCH");
         ])
       runs
    @ [
        [
          "cni";
          "per-message cost";
          "closure vs firmware";
          Printf.sprintf "%s vs %s"
            (Report.f1 p.Microbench.rel_closure_us)
            (Report.f1 p.Microbench.rel_firmware_us);
          "-";
          "-";
          Printf.sprintf "wcet %d cyc, %d mcyc/B" p.Microbench.rel_wcet_nic_cycles
            p.Microbench.rel_wcet_per_byte_milli;
          "-";
        ];
      ])

let aih_bench () =
  let v = Microbench.verifier_throughput () in
  Report.make ~id:"microbench-aih"
    ~title:"AIH admission: verifier throughput and verified-firmware activation cost"
    ~columns:[ "benchmark"; "configuration"; "us-a"; "us-b"; "wcet-cycles"; "code-bytes" ]
    ~notes:
      [
        "verifier row: us-a = wall-clock microseconds to verify one program, us-b = programs \
         verified per second of host time (the install-time admission check, real code)";
        "activation rows: us-a = per-op latency with the closure handler (flat dispatch \
         charge), us-b = with verified IR firmware charged per executed instruction; the \
         certificate columns are rank 0's";
      ]
    ([
       "verifier throughput";
       Printf.sprintf "%d-program corpus" v.Microbench.vp_programs;
       Report.f2 v.Microbench.vp_us_per_program;
       Printf.sprintf "%.0f" v.Microbench.vp_verifies_per_sec;
       "-";
       "-";
     ]
    :: List.concat_map
         (fun nodes ->
           let p = Microbench.aih_activation ~nodes () in
           List.map
             (fun (op, closure_us, ir_us) ->
               [
                 Printf.sprintf "%s (%d nodes)" op nodes;
                 "closure vs verified IR";
                 Report.f1 closure_us;
                 Report.f1 ir_us;
                 count p.Microbench.act_wcet_nic_cycles;
                 count p.Microbench.act_code_bytes;
               ])
             [
               ("barrier", p.Microbench.act_closure_barrier_us, p.Microbench.act_ir_barrier_us);
               ( "allreduce",
                 p.Microbench.act_closure_allreduce_us,
                 p.Microbench.act_ir_allreduce_us );
             ])
         [ 2; 8; 16 ])

let all =
  let d = Params.default in
  [
    on_off ~id:"ablation-mc"
      ~title:"Message Cache contribution (8-processor Cholesky bcsstk14-like)"
      ~note:"ADC+AIH retained; only the Message Cache is removed" cholesky
      [
        ("CNI", d, Runner.cni ());
        ("CNI, no Message Cache", d, Runner.cni ~mc_bytes:0 ());
        ("standard", d, Runner.standard);
      ];
    on_off ~id:"ablation-aih"
      ~title:"Application Interrupt Handler contribution (8-processor Water 216)"
      ~note:"without AIH, protocol handlers run on the host behind the polling hybrid" water
      [
        ("CNI", d, Runner.cni ());
        ("CNI, host handlers", d, Runner.cni ~aih:false ());
        ("standard", d, Runner.standard);
      ];
    on_off ~id:"ablation-hybrid"
      ~title:"Polling/interrupt hybrid contribution (8-processor Water 216, host handlers)"
      ~note:"interrupt-only reception reintroduces the per-message interrupt cost" water
      [
        ("CNI, host handlers, hybrid", d, Runner.cni ~aih:false ());
        ( "CNI, host handlers, interrupt-only",
          d,
          Runner.cni ~aih:false ~rx_policy:Nic.Rx_interrupt () );
      ];
    ("ablation-rxpolicy", rx_policy);
    ("microbench-classifier", classifier_bench);
    on_off ~id:"ablation-snoop"
      ~title:"Write-update vs invalidate snooping (8-processor Jacobi 512)"
      ~note:
        "invalidate snooping drops a board buffer on every host write-back, so rewritten pages \
         always miss"
      jacobi
      [
        ("CNI, write-update snoop", d, Runner.cni ());
        ( "CNI, invalidate snoop",
          d,
          Runner.cni ~mc_mode:Cni_nic.Message_cache.Invalidate () );
      ];
    ("ablation-interrupt", interrupt_sensitivity);
    (* write-back vs write-through host caches: the paper evaluates
       write-back (the hard case, needing pre-transfer flushes) and notes
       write-through keeps the board trivially consistent -- at the cost of
       putting every store on the bus *)
    on_off ~id:"ablation-writepolicy" ~title:"Host cache policy (8-processor Jacobi 512)"
      ~note:
        "write-through keeps the Message Cache consistent without flushes but floods the \
         memory bus with store traffic"
      jacobi
      [
        ("CNI, write-back", write_policy Params.Write_back, Runner.cni ());
        ("CNI, write-through", write_policy Params.Write_through, Runner.cni ());
        ("standard, write-back", write_policy Params.Write_back, Runner.standard);
        ("standard, write-through", write_policy Params.Write_through, Runner.standard);
      ];
    ("ablation-evolution", interface_evolution);
    ("ablation-ordering", ordering);
    ("ablation-faults", faults);
    ("ablation-chaos", chaos);
    ("ablation-collectives", collectives);
    ("ablation-topology", topology);
    ("ablation-serving", serving);
    ("microbench-aih", aih_bench);
    ("ablation-reliable-fw", reliable_firmware);
  ]
