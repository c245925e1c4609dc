(* Open-loop key-value serving. Servers occupy node ids [0..servers-1] so a
   key routes with one mod; each client node runs two fibers — a sender
   pacing requests at precomputed arrival times and the main fiber draining
   responses — which is what makes the loop open: the recv side falling
   behind never slows the send side down. *)

module Time = Cni_engine.Time
module Rng = Cni_engine.Rng
module Engine = Cni_engine.Engine
module Fabric = Cni_atm.Fabric
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp

module Hist = Cni_engine.Stats.Histogram

type config = {
  clients : int;
  servers : int;
  requests_per_client : int;
  arrival : int -> unit -> Time.t;
  value_bytes : int;
  put_pct : int;
  seed : int;
  service_cycles : int;
}

type result = {
  requests : int;
  responses : int;
  gets : int;
  puts : int;
  elapsed_us : float;
  throughput_rps : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  retransmits : int;
  fault_drops : int;
  hop_waits : int;
  host_interrupts : int;
  polls : int;
  wasted_polls : int;
  hist : Hist.t;
}

let validate c =
  let errs = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if c.clients < 1 then bad "clients must be >= 1 (got %d)" c.clients;
  if c.servers < 1 then bad "servers must be >= 1 (got %d)" c.servers;
  if c.requests_per_client < 1 then
    bad "requests-per-client must be >= 1 (got %d)" c.requests_per_client;
  if c.value_bytes < 1 then bad "value-bytes must be >= 1 (got %d)" c.value_bytes;
  if c.put_pct < 0 || c.put_pct > 100 then
    bad "put-pct must be within 0..100 (got %d)" c.put_pct;
  if c.service_cycles < 0 then bad "service-cycles must be >= 0 (got %d)" c.service_cycles;
  if !errs = [] then Ok () else Error (List.rev !errs)

type op = Get | Put

type msg =
  | Request of { op : op; key : int; gen_ps : int }
  | Response of { op : op; gen_ps : int }
  | Stop

let req_tag = 1
let resp_tag = 2

(* A get request / put response carries only a key header on the wire; the
   value payload rides the other direction. *)
let header_bytes = 32

let run ?faults ?topology ?(watchdog = Time.s 2) ~nic_kind c =
  (match validate c with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Kv_serve.run: " ^ String.concat "; " errs));
  let nodes = c.clients + c.servers in
  let cluster = Cluster.create ?faults ?topology ~nic_kind ~nodes () in
  let eps : msg Mp.t array = Mp.install cluster in
  let keyspace = 64 * c.servers in
  let hist = Hist.create () in
  let responses = ref 0 and gets = ref 0 and puts = ref 0 in
  Cluster.run_app ~watchdog cluster (fun node ->
      let id = Node.id node in
      let ep = eps.(id) in
      let eng = Node.engine node in
      if id < c.servers then begin
        (* server: serve until every client said Stop *)
        let stopped = ref 0 in
        while !stopped < c.clients do
          let e = Mp.recv ep ~tag:req_tag () in
          match e.Mp.value with
          | Request { op; key = _; gen_ps } ->
              Node.work node c.service_cycles;
              let bytes = match op with Get -> c.value_bytes | Put -> header_bytes in
              Mp.send ep ~dst:e.Mp.src ~tag:resp_tag ~bytes (Response { op; gen_ps })
          | Stop -> incr stopped
          | Response _ -> ()
        done
      end
      else begin
        let client = id - c.servers in
        let gap = c.arrival client in
        let rng = Rng.create ~seed:(c.seed + (7919 * (client + 1))) in
        (* sender fiber: requests leave at their scheduled arrival times
           regardless of how far behind the responses are (open loop). The
           stamp is the scheduled time, so any client-side sending stall is
           charged to the requests it delays. *)
        Engine.spawn eng ~name:(Printf.sprintf "kv-client-%d-tx" client) (fun () ->
            let sched = ref Time.zero in
            for _ = 1 to c.requests_per_client do
              sched := Time.( + ) !sched (gap ());
              let now = Engine.now eng in
              if Time.to_ps !sched > Time.to_ps now then
                Engine.delay (Time.( - ) !sched now);
              let key = Rng.int rng keyspace in
              let op = if Rng.int rng 100 < c.put_pct then Put else Get in
              let bytes = match op with Put -> c.value_bytes | Get -> header_bytes in
              Mp.send ep ~dst:(key mod c.servers) ~tag:req_tag ~bytes
                (Request { op; key; gen_ps = Time.to_ps !sched })
            done);
        for _ = 1 to c.requests_per_client do
          let e = Mp.recv ep ~tag:resp_tag () in
          match e.Mp.value with
          | Response { op; gen_ps } ->
              let lat_ps = Time.to_ps (Engine.now eng) - gen_ps in
              Hist.observe hist (lat_ps / 1000);
              incr responses;
              (match op with Get -> incr gets | Put -> incr puts)
          | Request _ | Stop -> ()
        done;
        for s = 0 to c.servers - 1 do
          Mp.send ep ~dst:s ~tag:req_tag Stop
        done
      end);
  let elapsed = Cluster.elapsed cluster in
  let f = Fabric.stats (Cluster.fabric cluster) in
  let sum_nic field = Cluster.sum cluster (fun n -> field (Nic.stats (Node.nic n))) in
  let q p = float_of_int (Hist.quantile hist p) /. 1e3 in
  {
    requests = c.clients * c.requests_per_client;
    responses = !responses;
    gets = !gets;
    puts = !puts;
    elapsed_us = Time.to_us_float elapsed;
    throughput_rps =
      (if Time.to_ps elapsed = 0 then 0.
       else float_of_int !responses /. Time.to_s_float elapsed);
    mean_us = Hist.mean hist /. 1e3;
    p50_us = q 0.5;
    p99_us = q 0.99;
    p999_us = q 0.999;
    max_us = float_of_int (Hist.max_value hist) /. 1e3;
    retransmits = Cluster.retransmits cluster;
    fault_drops =
      Cluster.sum cluster (fun n -> Fabric.fault_drops (Cluster.fabric cluster) ~node:(Node.id n));
    hop_waits = f.Fabric.hop_waits;
    host_interrupts = sum_nic (fun s -> s.Nic.interrupts);
    polls = sum_nic (fun s -> s.Nic.polls);
    wasted_polls = sum_nic (fun s -> s.Nic.wasted_polls);
    hist;
  }
