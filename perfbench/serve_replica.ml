(* The Kv_serve client/server program replayed over a cluster the benchmark
   owns. Kv_serve.run keeps its cluster private, so the engine, NIC, fabric
   and cache counters of a serving run can only be read from a replica. The
   replica makes the same simulator calls in the same order as
   Kv_serve.run; main.ml checks that it reproduces Scenario.run's result
   exactly, so a drift between the two fails the benchmark rather than
   silently measuring another program. *)

module Time = Cni_engine.Time
module Rng = Cni_engine.Rng
module Engine = Cni_engine.Engine
module Fabric = Cni_atm.Fabric
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Kv = Cni_apps.Kv_serve
module Scenario = Cni_experiments.Scenario
module Arrival = Cni_experiments.Arrival
module Runner = Cni_experiments.Runner

type op = Get | Put
type msg = Request of { op : op; gen_ps : int } | Response of { op : op; gen_ps : int } | Stop

let req_tag = 1
let resp_tag = 2
let header_bytes = 32

let nic_kind (p : Scenario.profile) =
  match p.Scenario.nic with
  | Scenario.Cni ->
      let rx_policy =
        match p.Scenario.rx_policy with
        | Scenario.Interrupt -> Nic.Rx_interrupt
        | Scenario.Poll -> Nic.Rx_poll
        | Scenario.Hybrid -> Nic.Rx_hybrid
        | Scenario.Adaptive -> Nic.Rx_adaptive Nic.default_rx_adaptive
      in
      Runner.cni ~aih:p.Scenario.aih ~rx_policy ~rx_batch:p.Scenario.rx_batch ()
  | Scenario.Osiris -> Runner.osiris
  | Scenario.Standard -> Runner.standard

(* the public calls Kv_serve.run makes before its first simulated event *)
let setup (p : Scenario.profile) =
  let cluster : msg Mp.envelope Cluster.t =
    Cluster.create ~faults:p.Scenario.faults ~topology:p.Scenario.topology ~nic_kind:(nic_kind p)
      ~nodes:(p.Scenario.clients + p.Scenario.servers)
      ()
  in
  (cluster, Mp.install cluster)

let run (p : Scenario.profile) =
  let servers = p.Scenario.servers and clients = p.Scenario.clients in
  let per_client = p.Scenario.requests_per_client in
  let cluster, eps = setup p in
  let keyspace = 64 * servers in
  let hist = Kv.Hist.create () in
  (* every response latency in ps, for exact quantiles *)
  let latencies = Array.make (clients * per_client) 0 in
  let responses = ref 0 and gets = ref 0 and puts = ref 0 in
  Cluster.run_app ~watchdog:(Time.s 2) cluster (fun node ->
      let id = Node.id node in
      let ep = eps.(id) in
      let eng = Node.engine node in
      if id < servers then begin
        let stopped = ref 0 in
        while !stopped < clients do
          let e = Mp.recv ep ~tag:req_tag () in
          match e.Mp.value with
          | Request { op; gen_ps } ->
              Node.work node p.Scenario.service_cycles;
              let bytes = match op with Get -> p.Scenario.value_bytes | Put -> header_bytes in
              Mp.send ep ~dst:e.Mp.src ~tag:resp_tag ~bytes (Response { op; gen_ps })
          | Stop -> incr stopped
          | Response _ -> ()
        done
      end
      else begin
        let client = id - servers in
        let arrivals =
          Arrival.create ~seed:(p.Scenario.seed + (104729 * (client + 1))) p.Scenario.arrival
        in
        let rng = Rng.create ~seed:(p.Scenario.seed + (7919 * (client + 1))) in
        Engine.spawn eng ~name:(Printf.sprintf "kv-client-%d-tx" client) (fun () ->
            let sched = ref Time.zero in
            for _ = 1 to per_client do
              sched := Time.( + ) !sched (Arrival.next_gap arrivals);
              let now = Engine.now eng in
              if Time.to_ps !sched > Time.to_ps now then Engine.delay (Time.( - ) !sched now);
              let key = Rng.int rng keyspace in
              let op = if Rng.int rng 100 < p.Scenario.put_pct then Put else Get in
              let bytes = match op with Put -> p.Scenario.value_bytes | Get -> header_bytes in
              Mp.send ep ~dst:(key mod servers) ~tag:req_tag ~bytes
                (Request { op; gen_ps = Time.to_ps !sched })
            done);
        for _ = 1 to per_client do
          let e = Mp.recv ep ~tag:resp_tag () in
          match e.Mp.value with
          | Response { op; gen_ps } ->
              let lat_ps = Time.to_ps (Engine.now eng) - gen_ps in
              Kv.Hist.observe hist (lat_ps / 1000);
              latencies.(!responses) <- lat_ps;
              incr responses;
              (match op with Get -> incr gets | Put -> incr puts)
          | Request _ | Stop -> ()
        done;
        for s = 0 to servers - 1 do
          Mp.send ep ~dst:s ~tag:req_tag Stop
        done
      end);
  let elapsed = Cluster.elapsed cluster in
  let fab = Cluster.fabric cluster in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 (Cluster.nodes cluster) in
  let nic f = sum (fun n -> f (Nic.stats (Node.nic n))) in
  let q x = float_of_int (Kv.Hist.quantile hist x) /. 1e3 in
  let result =
    {
      Kv.requests = clients * per_client;
      responses = !responses;
      gets = !gets;
      puts = !puts;
      elapsed_us = Time.to_us_float elapsed;
      throughput_rps =
        (if Time.to_ps elapsed = 0 then 0.
         else float_of_int !responses /. Time.to_s_float elapsed);
      mean_us = Kv.Hist.mean hist /. 1e3;
      p50_us = q 0.5;
      p99_us = q 0.99;
      p999_us = q 0.999;
      max_us = float_of_int (Kv.Hist.max_value hist) /. 1e3;
      retransmits = Cluster.retransmits cluster;
      fault_drops = sum (fun n -> Fabric.fault_drops fab ~node:(Node.id n));
      hop_waits = (Fabric.stats fab).Fabric.hop_waits;
      host_interrupts = nic (fun s -> s.Nic.interrupts);
      polls = nic (fun s -> s.Nic.polls);
      wasted_polls = nic (fun s -> s.Nic.wasted_polls);
      hist;
    }
  in
  (result, cluster, Array.sub latencies 0 !responses)

(* everything a serving result reports except the histogram itself *)
let fingerprint (r : Kv.result) =
  let f = float_of_int in
  [
    ("requests", f r.Kv.requests);
    ("responses", f r.Kv.responses);
    ("gets", f r.Kv.gets);
    ("puts", f r.Kv.puts);
    ("elapsed_us", r.Kv.elapsed_us);
    ("throughput_rps", r.Kv.throughput_rps);
    ("mean_us", r.Kv.mean_us);
    ("p50_us", r.Kv.p50_us);
    ("p99_us", r.Kv.p99_us);
    ("p999_us", r.Kv.p999_us);
    ("max_us", r.Kv.max_us);
    ("retransmits", f r.Kv.retransmits);
    ("fault_drops", f r.Kv.fault_drops);
    ("hop_waits", f r.Kv.hop_waits);
    ("host_interrupts", f r.Kv.host_interrupts);
    ("polls", f r.Kv.polls);
    ("wasted_polls", f r.Kv.wasted_polls);
  ]
