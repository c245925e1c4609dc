module Time = Cni_engine.Time
module Nic = Cni_nic.Nic

let cholesky = Runner.cholesky Runner.bcsstk14
let water = Runner.water ~molecules:216
let jacobi = Runner.jacobi ~n:512 ~iterations:12

let row name kind app =
  let r = Runner.run ~kind ~procs:8 app in
  [ name; Format.asprintf "%a" Time.pp r.Runner.elapsed; Report.f1 r.Runner.hit_ratio ]

let columns = [ "configuration"; "elapsed"; "cache-hit-%" ]

let message_cache () =
  Report.make ~id:"ablation-mc"
    ~title:"Message Cache contribution (8-processor Cholesky bcsstk14-like)"
    ~columns
    ~notes:[ "ADC+AIH retained; only the Message Cache is removed" ]
    [
      row "CNI" (Runner.cni ()) cholesky;
      row "CNI, no Message Cache" (Runner.cni ~mc_bytes:0 ()) cholesky;
      row "standard" Runner.standard cholesky;
    ]

let aih () =
  Report.make ~id:"ablation-aih"
    ~title:"Application Interrupt Handler contribution (8-processor Water 216)"
    ~columns
    ~notes:[ "without AIH, protocol handlers run on the host behind the polling hybrid" ]
    [
      row "CNI" (Runner.cni ()) water;
      row "CNI, host handlers" (Runner.cni ~aih:false ()) water;
      row "standard" Runner.standard water;
    ]

let hybrid_receive () =
  Report.make ~id:"ablation-hybrid"
    ~title:"Polling/interrupt hybrid contribution (8-processor Water 216, host handlers)"
    ~columns
    ~notes:[ "interrupt-only reception reintroduces the per-message interrupt cost" ]
    [
      row "CNI, host handlers, hybrid" (Runner.cni ~aih:false ()) water;
      row "CNI, host handlers, interrupt-only"
        (Runner.cni ~aih:false ~rx_policy:Nic.Rx_interrupt ())
        water;
    ]

(* The receive wakeup policy, measured two ways: a synthetic arrival-rate
   sweep where a computing host receives paced frames (isolating the wakeup
   cost of each policy at a known rate), then the three applications, whose
   checksums double as proof the policy changes timing only. *)
let rx_policies = List.map (fun (name, rx) -> (name, Scenario.to_rx_policy rx)) Scenario.rx_names

let rx_policy () =
  let synth_row name ?(rx_batch = 1) ~gap ~count (pname, policy) =
    let p = Microbench.rx_policy_sweep ~policy ~gap ~count ~rx_batch () in
    [
      name;
      pname;
      string_of_int p.Microbench.rx_interrupts;
      string_of_int p.Microbench.rx_polls;
      string_of_int p.Microbench.rx_wasted;
      string_of_int p.Microbench.rx_coalesced;
      Report.f1 p.Microbench.rx_latency_us;
      "-";
    ]
  in
  let synth_rows =
    List.concat_map
      (fun (rate, gap, count) ->
        List.map
          (synth_row (Printf.sprintf "synthetic, %s arrivals" rate) ~gap ~count)
          rx_policies)
      [
        ("hot (2us)", Time.us 2, 200);
        ("medium (50us)", Time.us 50, 120);
        ("idle (1ms)", Time.ms 1, 40);
      ]
  in
  let batch_rows =
    List.map
      (fun rx_batch ->
        synth_row
          (Printf.sprintf "synthetic, hot arrivals, batch %d" rx_batch)
          ~rx_batch ~gap:(Time.us 2) ~count:200
          ("adaptive", Nic.Rx_adaptive Nic.default_rx_adaptive))
      [ 4; 8 ]
  in
  let app_rows =
    List.concat_map
      (fun (aname, app) ->
        List.map
          (fun (pname, policy) ->
            let r = Runner.run ~kind:(Runner.cni ~aih:false ~rx_policy:policy ()) ~procs:8 app in
            [
              aname;
              pname;
              string_of_int r.Runner.host_interrupts;
              string_of_int r.Runner.polls;
              string_of_int r.Runner.wasted_polls;
              "-";
              Format.asprintf "%a" Time.pp r.Runner.elapsed;
              Printf.sprintf "%.10g" r.Runner.checksum;
            ])
          rx_policies)
      [
        ("Jacobi 512 (8 procs)", jacobi);
        ("Water 216 (8 procs)", water);
        ("Cholesky bcsstk14-like (8 procs)", cholesky);
      ]
  in
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
    (synth_rows @ batch_rows @ app_rows)

(* wall-clock cost of the simulator's classification step as patterns grow:
   the indexed DAG should be flat where the linear reference scan is O(n) *)
let classifier_bench () =
  let rows =
    List.map
      (fun n ->
        let p = Microbench.classifier_ops ~patterns:n () in
        [
          string_of_int n;
          Report.f1 p.Microbench.indexed_ns;
          Report.f1 p.Microbench.linear_ns;
          Report.f2 p.Microbench.cls_speedup;
        ])
      [ 1; 16; 256 ]
  in
  Report.make ~id:"microbench-classifier"
    ~title:"PATHFINDER classification dispatch (wall-clock, one pattern per channel)"
    ~columns:[ "patterns"; "indexed-ns/op"; "linear-ns/op"; "speedup" ]
    ~notes:
      [
        "indexed: per-node hashtable keyed by field spec (offset/len/mask), then by masked \
         value — O(pattern depth); linear: priority-ordered scan of every live pattern, \
         the reference semantics the property tests hold the DAG to";
      ]
    rows

let snoop_mode () =
  Report.make ~id:"ablation-snoop"
    ~title:"Write-update vs invalidate snooping (8-processor Jacobi 512)"
    ~columns
    ~notes:
      [
        "invalidate snooping drops a board buffer on every host write-back, so rewritten pages \
         always miss";
      ]
    [
      row "CNI, write-update snoop" (Runner.cni ()) jacobi;
      row "CNI, invalidate snoop" (Runner.cni ~mc_mode:Cni_nic.Message_cache.Invalidate ()) jacobi;
    ]

(* how much of the standard interface's deficit is the interrupt cost?
   (Table 1's garbled row motivates checking the sensitivity) *)
let interrupt_sensitivity () =
  let module Params = Cni_machine.Params in
  let rows =
    List.map
      (fun us ->
        let params = { Params.default with Params.interrupt_latency = Time.us us } in
        let rc = Runner.run ~params ~kind:(Runner.cni ()) ~procs:8 cholesky in
        let rs = Runner.run ~params ~kind:Runner.standard ~procs:8 cholesky in
        [
          string_of_int us;
          Format.asprintf "%a" Time.pp rc.Runner.elapsed;
          Format.asprintf "%a" Time.pp rs.Runner.elapsed;
          Report.f2 (Time.to_s_float rs.Runner.elapsed /. Time.to_s_float rc.Runner.elapsed);
        ])
      [ 10; 20; 40; 80 ]
  in
  Report.make ~id:"ablation-interrupt"
    ~title:"Interrupt-latency sensitivity (8-processor Cholesky bcsstk14-like)"
    ~columns:[ "interrupt-us"; "cni"; "standard"; "std/cni" ]
    ~notes:
      [
        "the CNI barely notices (its handlers run on the board); the standard interface \
         degrades with every microsecond of interrupt cost";
      ]
    rows

(* write-back vs write-through host caches: the paper evaluates write-back
   (the hard case, needing pre-transfer flushes) and notes write-through
   keeps the board trivially consistent -- at the cost of putting every
   store on the bus *)
let cache_policy () =
  let module Params = Cni_machine.Params in
  let row name policy kind =
    let params = { Params.default with Params.cache_policy = policy } in
    let r = Runner.run ~params ~kind ~procs:8 jacobi in
    [ name; Format.asprintf "%a" Time.pp r.Runner.elapsed; Report.f1 r.Runner.hit_ratio ]
  in
  Report.make ~id:"ablation-writepolicy"
    ~title:"Host cache policy (8-processor Jacobi 512)"
    ~columns
    ~notes:
      [
        "write-through keeps the Message Cache consistent without flushes but floods the \
         memory bus with store traffic";
      ]
    [
      row "CNI, write-back" Params.Write_back (Runner.cni ());
      row "CNI, write-through" Params.Write_through (Runner.cni ());
      row "standard, write-back" Params.Write_back Runner.standard;
      row "standard, write-through" Params.Write_through Runner.standard;
    ]

(* the three generations in one table: standard -> OSIRIS (user-level ADC,
   software demux, interrupt-only) -> CNI (PATHFINDER + MC + AIH) *)
let interface_evolution () =
  let interfaces =
    [ ("standard", Runner.standard); ("OSIRIS", Runner.osiris); ("CNI", Runner.cni ()) ]
  in
  let latency_rows =
    List.map
      (fun (iface, kind) ->
        (* messaging uses host-side delivery on every interface *)
        let kind = match kind with `Cni o -> `Cni { o with Cni_nic.Nic.aih = false } | k -> k in
        let t = Microbench.latency ~kind ~bytes:2048 () in
        [ "2KB one-way latency"; iface; Format.asprintf "%a" Cni_engine.Time.pp t; "-" ])
      interfaces
  in
  let app_rows =
    List.concat_map
      (fun (name, app) ->
        List.map
          (fun (iface, kind) ->
            let r = Runner.run ~kind ~procs:8 app in
            [
              name;
              iface;
              Format.asprintf "%a" Time.pp r.Runner.elapsed;
              Report.f1 r.Runner.hit_ratio;
            ])
          interfaces)
      [ ("Water 216 (8 procs)", water); ("Cholesky bcsstk14-like (8 procs)", cholesky) ]
  in
  Report.make ~id:"ablation-evolution"
    ~title:"Interface evolution: standard -> OSIRIS -> CNI"
    ~columns:[ "workload"; "interface"; "elapsed"; "cache-hit-%" ]
    ~notes:
      [
        "OSIRIS (the board the CNI extends) removes the kernel from the messaging path but \
         still interrupts per packet, so its DSM runs stay near the standard board — the \
         classifier, Message Cache and on-board handlers are what move the applications";
      ]
    (latency_rows @ app_rows)

(* ordering matters: fill-in drives both the flop count and the page
   traffic; RCM recovers most of what a bad ordering loses *)
let ordering () =
  let module Sparse = Cni_apps.Sparse in
  let a = Sparse.stiffness_like ~n:600 ~dofs:3 ~seed:21 in
  let scrambled = Sparse.permute a ~perm:(Array.init 600 (fun i -> (i * 389) mod 600)) in
  let rcm = Sparse.permute scrambled ~perm:(Sparse.rcm scrambled) in
  let row name m =
    let r = Runner.run ~kind:(Runner.cni ()) ~procs:8 (Runner.cholesky (Lazy.from_val m)) in
    [
      name;
      string_of_int (Sparse.nnz (Sparse.symbolic m));
      string_of_int (Sparse.bandwidth m);
      Format.asprintf "%a" Time.pp r.Runner.elapsed;
    ]
  in
  Report.make ~id:"ablation-ordering"
    ~title:"Elimination ordering (8-processor CNI Cholesky, n=600 stiffness-like)"
    ~columns:[ "ordering"; "nnz(L)"; "bandwidth"; "elapsed" ]
    ~notes:[ "fill-in controls both the flop count and the migrating pages" ]
    [ row "natural (banded)" a; row "scrambled" scrambled; row "RCM of scrambled" rcm ]

(* graceful degradation on a lossy fabric: sweep the per-cell loss rate with
   the reliability protocol on (also at zero loss, so the ack traffic is in
   the baseline and the slowdown column isolates loss recovery). The standard
   interface degrades faster: every retransmission, ack and duplicate costs
   it a host interrupt + kernel path, while the CNI boards recover in
   firmware. *)
let faults () =
  let module Faults = Cni_atm.Faults in
  let module Reliable = Cni_nic.Reliable in
  let losses = [ 0.; 1e-6; 1e-5; 1e-4; 1e-3 ] in
  let fmt_loss l = if l = 0. then "0" else Printf.sprintf "%.0e" l in
  let rows =
    List.concat_map
      (fun (aname, app) ->
        List.concat_map
          (fun (kname, kind) ->
            let base = ref None in
            List.map
              (fun loss ->
                let faults =
                  if loss > 0. then Some { Faults.none with Faults.cell_loss = loss } else None
                in
                match Runner.run ?faults ~reliability:Reliable.default ~kind ~procs:8 app with
                | r ->
                    if loss = 0. then base := Some r.Runner.elapsed;
                    let slowdown =
                      match !base with
                      | Some b ->
                          Report.f2 (Time.to_s_float r.Runner.elapsed /. Time.to_s_float b)
                      | None -> "-"
                    in
                    [
                      aname;
                      kname;
                      fmt_loss loss;
                      "ok";
                      Format.asprintf "%a" Time.pp r.Runner.elapsed;
                      string_of_int r.Runner.retransmits;
                      slowdown;
                    ]
                | exception Cni_engine.Engine.Fiber_failure (_, Reliable.Delivery_failed _) ->
                    [ aname; kname; fmt_loss loss; "failed"; "-"; "-"; "-" ])
              losses)
          [ ("cni", Runner.cni ()); ("standard", Runner.standard) ])
      [
        ("Jacobi 512", jacobi);
        ("Water 216", water);
        ("Cholesky bcsstk14-like", cholesky);
      ]
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
    rows

(* Node crash/restart chaos: seeded fault schedules against a closed-loop
   DSM application (expected to recover and finish with the fault-free
   checksum) and an open-loop message ring (expected to degrade by timing
   out rounds, never to hang). Every row is deterministic in the seed, so
   the CI smoke can diff two invocations. *)
let chaos () =
  let fmt_ck ck = if Float.is_nan ck then "-" else Report.f2 ck in
  let row name m =
    [
      name;
      string_of_int m.Chaos.crashes;
      m.Chaos.outcome;
      Report.f1 m.Chaos.elapsed_us;
      string_of_int m.Chaos.retransmits;
      string_of_int m.Chaos.crash_drops;
      string_of_int m.Chaos.recoveries;
      Report.f1 m.Chaos.mean_recovery_us;
      string_of_int m.Chaos.rx_timeouts;
      fmt_ck m.Chaos.checksum;
    ]
  in
  let sweep = [ (0, Time.us 0, "-"); (1, Time.us 150, "150us"); (2, Time.us 400, "400us") ] in
  let dsm_rows =
    List.map
      (fun (crashes, down, dname) ->
        let down = if crashes = 0 then Time.us 150 else down in
        row
          (Printf.sprintf "Jacobi 128 DSM, %d crash(es), down %s" crashes dname)
          (Chaos.run_dsm ~crashes ~down ()))
      sweep
  in
  let scrub_row =
    row "Jacobi 128 DSM, 2 scrub crashes, down 400us"
      (Chaos.run_dsm ~scrub:true ~crashes:2 ~down:(Time.us 400) ())
  in
  let ring_rows =
    List.map
      (fun (crashes, down, dname) ->
        let down = if crashes = 0 then Time.us 150 else down in
        row
          (Printf.sprintf "Mp ring 8x24, %d crash(es), down %s" crashes dname)
          (Chaos.run_ring ~crashes ~down ()))
      sweep
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
    (dsm_rows @ [ scrub_row ] @ ring_rows)

(* NIC-resident collectives (the combining tree as AIH code) against the
   host-driven implementations: raw barrier / allreduce latency as the node
   count grows, then the three applications with the DSM barrier switched
   between the centralised node-0 manager and the tree. *)
let collectives () =
  let latency_rows =
    List.concat_map
      (fun nodes ->
        List.map
          (fun (name, kind, nic) ->
            let p = Microbench.collective_latency ~kind ~nodes ~nic () in
            [
              Printf.sprintf "barrier+allreduce (%d nodes)" nodes;
              name;
              Report.f1 p.Microbench.barrier_us;
              Report.f1 p.Microbench.allreduce_us;
              "-";
              string_of_int p.Microbench.interrupts;
            ])
          [
            ("CNI, host-driven", Runner.cni (), false);
            ("CNI, NIC tree", Runner.cni (), true);
            ("standard, host-driven", Runner.standard, false);
            ("standard, NIC tree", Runner.standard, true);
          ])
      [ 2; 4; 8; 16 ]
  in
  let app_rows =
    List.concat_map
      (fun (aname, app) ->
        List.map
          (fun (bname, barrier_impl) ->
            let r = Runner.run ~barrier_impl ~kind:(Runner.cni ()) ~procs:8 app in
            [
              aname;
              bname;
              "-";
              "-";
              Format.asprintf "%a" Time.pp r.Runner.elapsed;
              string_of_int r.Runner.host_interrupts;
            ])
          [ ("CNI, centralised barrier", `Centralised); ("CNI, NIC-tree barrier", `Nic_collective) ])
      [
        ("Jacobi 512 (8 procs)", jacobi);
        ("Water 216 (8 procs)", water);
        ("Cholesky bcsstk14-like (8 procs)", cholesky);
      ]
  in
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
    (latency_rows @ app_rows)

(* Fabric topology x combining-tree fanout: the collectives' tree latency
   under each fabric shape at 64 nodes, then Jacobi at 256 processors per
   topology.  The checksum column is the seed-equivalence witness: routing
   frames through a fat-tree or torus reshuffles timing (hop-waits,
   conflicts) but must not change any numeric result. *)
let topology () =
  let module Topology = Cni_atm.Topology in
  let topologies =
    [
      ("single switch", Topology.Single);
      ("fat-tree", Topology.Fat_tree { leaf_radix = 16 });
      ("3d-torus", Topology.Torus { dims = None });
    ]
  in
  let fanout_rows =
    List.concat_map
      (fun (tname, topology) ->
        List.map
          (fun fanout ->
            let p =
              Microbench.collective_latency ~kind:(Runner.cni ()) ~topology ~fanout
                ~nodes:64 ~nic:true ()
            in
            [
              "barrier+allreduce (64 nodes, NIC tree)";
              Printf.sprintf "%s, fanout %d" tname fanout;
              Report.f1 p.Microbench.barrier_us;
              Report.f1 p.Microbench.allreduce_us;
              "-";
              "-";
              "-";
              "-";
            ])
          [ 2; 4; 8 ])
      topologies
  in
  let app_runs =
    List.map
      (fun (tname, topology) ->
        (tname, topology, Runner.run ~topology ~kind:(Runner.cni ()) ~procs:256 jacobi))
      topologies
  in
  let app_rows =
    List.map
      (fun (tname, _, r) ->
        [
          "Jacobi 512 (256 procs)";
          tname;
          "-";
          "-";
          Format.asprintf "%a" Time.pp r.Runner.elapsed;
          string_of_int r.Runner.hop_waits;
          string_of_int r.Runner.banyan_conflicts;
          Printf.sprintf "%.10g" r.Runner.checksum;
        ])
      app_runs
  in
  (* all deterministic, so the BENCH compare gate pins them exactly: the
     checksums must stay equal across topologies (routing moves time, never
     data) and the single-switch hop-wait count must stay zero (conflicts
     counted, not charged — the seed-equivalence contract) *)
  let metrics =
    List.concat_map
      (fun (_, topology, r) ->
        let slug =
          match topology with
          | Cni_atm.Topology.Single -> "single"
          | Cni_atm.Topology.Fat_tree _ -> "fat-tree"
          | Cni_atm.Topology.Torus _ -> "torus"
        in
        [
          ("jacobi256-" ^ slug ^ "-checksum", r.Runner.checksum);
          ("jacobi256-" ^ slug ^ "-hop-waits", float_of_int r.Runner.hop_waits);
          ("jacobi256-" ^ slug ^ "-conflicts", float_of_int r.Runner.banyan_conflicts);
        ])
      app_runs
  in
  Report.make ~id:"ablation-topology"
    ~title:"Fabric topology x combining-tree fanout (per-hop contention model)"
    ~metrics
    ~columns:
      [
        "workload";
        "configuration";
        "barrier-us";
        "allreduce-us";
        "elapsed";
        "hop-waits";
        "conflicts";
        "checksum";
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
    (fanout_rows @ app_rows)

(* Open-loop serving tails: offered load x receive policy x topology, on a
   lossy fabric (the PR 2 fault model, so the reliability layer is live).
   Message delivery runs on the host (aih off) — with the handler on the
   board the receive policy never fires and every row would tie. The whole
   sweep is deterministic, so every quantile is pinned as a metric. *)
let serving () =
  let module Topology = Cni_atm.Topology in
  let module Faults = Cni_atm.Faults in
  let requests = if !Figures.quick then 30 else 80 in
  let loads = [ ("moderate", 20_000.); ("high", 60_000.) ] in
  let topologies = [ ("single", Topology.Single); ("torus", Topology.Torus { dims = None }) ] in
  let runs =
    List.concat_map
      (fun (tname, topology) ->
        List.concat_map
          (fun (lname, rate) ->
            List.map
              (fun (pname, rx_policy) ->
                let profile =
                  {
                    Scenario.default with
                    Scenario.name = "ablation-serving";
                    requests_per_client = requests;
                    arrival = Arrival.Poisson { rate_per_s = rate };
                    aih = false;
                    rx_policy;
                    topology;
                    faults = Faults.with_loss ~seed:11 1e-4;
                  }
                in
                (tname, lname, pname, Scenario.run profile))
              Scenario.rx_names)
          loads)
      topologies
  in
  let rows =
    List.map
      (fun (tname, lname, pname, r) ->
        [
          tname;
          lname;
          pname;
          Printf.sprintf "%.3f" r.Cni_apps.Kv_serve.p50_us;
          Printf.sprintf "%.3f" r.Cni_apps.Kv_serve.p99_us;
          Printf.sprintf "%.3f" r.Cni_apps.Kv_serve.p999_us;
          Printf.sprintf "%.3f" r.Cni_apps.Kv_serve.max_us;
          string_of_int r.Cni_apps.Kv_serve.retransmits;
        ])
      runs
  in
  let metrics =
    List.concat_map
      (fun (tname, lname, pname, r) ->
        let key q = Printf.sprintf "serving-%s-%s-%s-%s" tname lname pname q in
        [
          (key "p50us", r.Cni_apps.Kv_serve.p50_us);
          (key "p99us", r.Cni_apps.Kv_serve.p99_us);
          (key "p999us", r.Cni_apps.Kv_serve.p999_us);
        ])
      runs
  in
  Report.make ~id:"ablation-serving"
    ~title:"Open-loop serving tails: offered load x rx policy x topology (lossy fabric)"
    ~metrics
    ~columns:[ "topology"; "load"; "rx-policy"; "p50-us"; "p99-us"; "p999-us"; "max-us"; "retx" ]
    ~notes:
      [
        "12 clients + 4 servers, Poisson arrivals, handlers on the host (aih off) so the \
         receive policy is on the delivery path; cell loss 1e-4 keeps the reliability \
         layer live";
        "latency is measured from each request's scheduled generation time, so queueing \
         delay (including coordinated-omission stalls) is charged to the tail";
      ]
    rows

(* Reliable delivery compiled onto the NIC: the closure reliability layer
   against the streaming-firmware endpoints (Reliable_ir), on both
   interfaces, clean and lossy. Each row pair runs the same lockstep parity
   ring, so the fault model hands both implementations identical per-frame
   verdicts; the parity column shows behavioural equality, and the
   deterministic firmware checksums are pinned as metrics. *)
let reliable_firmware () =
  let module Faults = Cni_atm.Faults in
  let module Flow = Reliable_flow in
  let cases =
    [
      ("cni", Runner.cni (), "clean", None);
      ( "cni",
        Runner.cni (),
        "loss 3e-2",
        Some { Faults.none with Faults.seed = 2; Faults.cell_loss = 3e-2 } );
      ("standard", Runner.standard, "clean", None);
      ( "standard",
        Runner.standard,
        "loss 3e-2",
        Some { Faults.none with Faults.seed = 2; Faults.cell_loss = 3e-2 } );
    ]
  in
  let runs =
    List.map
      (fun (iname, nic, lname, faults) ->
        let cfg = { Flow.default with Flow.nic; messages = 10; faults } in
        (iname, lname, Flow.run Flow.Closure cfg, Flow.run Flow.Firmware cfg))
      cases
  in
  let totals (o : Flow.outcome) =
    Array.fold_left
      (fun (r, d) c -> (r + c.Flow.retransmits, d + c.Flow.rx_duplicates))
      (0, 0) o.Flow.per_node
  in
  let flow_rows =
    List.concat_map
      (fun (iname, lname, a, b) ->
        let impl_row impl (o : Flow.outcome) parity =
          let retx, dups = totals o in
          [
            iname;
            lname;
            impl;
            Report.f1 (float_of_int o.Flow.elapsed_ps /. 1e6);
            string_of_int retx;
            string_of_int dups;
            string_of_int o.Flow.checksum;
            parity;
          ]
        in
        [
          impl_row "closure" a "-";
          impl_row "firmware" b (if a.Flow.checksum = b.Flow.checksum then "ok" else "MISMATCH");
        ])
      runs
  in
  let p = Microbench.reliable_firmware_activation () in
  let bench_row =
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
    ]
  in
  let metrics =
    List.concat_map
      (fun (iname, lname, a, b) ->
        let slug = iname ^ "-" ^ (if lname = "clean" then "clean" else "lossy") in
        [
          ("reliable-fw-" ^ slug ^ "-checksum", float_of_int b.Flow.checksum);
          ( "reliable-fw-" ^ slug ^ "-parity",
            if a.Flow.checksum = b.Flow.checksum then 1. else 0. );
        ])
      runs
    @ [
        ("reliable-fw-rx-wcet-cycles", float_of_int p.Microbench.rel_wcet_nic_cycles);
        ("reliable-fw-rx-wcet-perbyte-milli", float_of_int p.Microbench.rel_wcet_per_byte_milli);
      ]
  in
  Report.make ~id:"ablation-reliable-fw"
    ~title:"Reliable delivery: closure layer vs streaming firmware (lockstep parity ring)"
    ~metrics
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
    (flow_rows @ [ bench_row ])

let aih_bench () =
  let v = Microbench.verifier_throughput () in
  let verifier_row =
    [
      "verifier throughput";
      Printf.sprintf "%d-program corpus" v.Microbench.vp_programs;
      Report.f2 v.Microbench.vp_us_per_program;
      Printf.sprintf "%.0f" v.Microbench.vp_verifies_per_sec;
      "-";
      "-";
    ]
  in
  let activation_rows =
    List.concat_map
      (fun nodes ->
        let p = Microbench.aih_activation ~nodes () in
        [
          [
            Printf.sprintf "barrier (%d nodes)" nodes;
            "closure vs verified IR";
            Report.f1 p.Microbench.act_closure_barrier_us;
            Report.f1 p.Microbench.act_ir_barrier_us;
            string_of_int p.Microbench.act_wcet_nic_cycles;
            string_of_int p.Microbench.act_code_bytes;
          ];
          [
            Printf.sprintf "allreduce (%d nodes)" nodes;
            "closure vs verified IR";
            Report.f1 p.Microbench.act_closure_allreduce_us;
            Report.f1 p.Microbench.act_ir_allreduce_us;
            string_of_int p.Microbench.act_wcet_nic_cycles;
            string_of_int p.Microbench.act_code_bytes;
          ];
        ])
      [ 2; 8; 16 ]
  in
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
    (verifier_row :: activation_rows)

let all =
  [
    ("ablation-mc", message_cache);
    ("ablation-aih", aih);
    ("ablation-hybrid", hybrid_receive);
    ("ablation-rxpolicy", rx_policy);
    ("microbench-classifier", classifier_bench);
    ("ablation-snoop", snoop_mode);
    ("ablation-interrupt", interrupt_sensitivity);
    ("ablation-writepolicy", cache_policy);
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
