module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Params = Cni_machine.Params
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node

let channel = 7
let buffer_vaddr = 1 lsl 20

let header ~src =
  Wire.encode
    {
      Wire.kind = 1;
      cacheable = true;
      has_data = true;
      src;
      channel;
      obj = 0;
      aux = 0;
    }

(* One cluster per measurement. The receiving application is blocked waiting
   for the message — the realistic latency-test posture: a waiting host polls
   a CNI board (section 2.1's hybrid) while the standard board interrupts it
   regardless. The sender transmits the same buffer twice; the second
   (measured) send finds it in the Message Cache. *)
let latency ?(params = Params.default) ~kind ~bytes () =
  let cluster : Time.t Cluster.t = Cluster.create ~params ~nic_kind:kind ~nodes:2 () in
  let received = ref [] in
  let wake : (unit -> unit) option ref = ref None in
  let sender_go : (unit -> unit) option ref = ref None in
  let receiver_nic = Node.nic (Cluster.node cluster 1) in
  ignore
    (Nic.install_handler receiver_nic ~pattern:(Wire.pattern_channel ~channel) ~code_bytes:256
       (fun ctx pkt ->
         if bytes > 0 then ctx.Nic.deliver_page ~vaddr:buffer_vaddr ~bytes ~cacheable:false;
         received := (Engine.now (Cluster.engine cluster), pkt.Cni_atm.Fabric.payload) :: !received;
         match !wake with
         | Some f ->
             wake := None;
             f ()
         | None -> ()));
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        let nic = Node.nic node in
        let send_one () =
          let t0 = Engine.now (Cluster.engine cluster) in
          let data =
            if bytes > 0 then Nic.Page { vaddr = buffer_vaddr; bytes; cacheable = true }
            else Nic.No_data
          in
          Nic.send nic ~dst:1 ~header:(header ~src:0) ~body_bytes:0 ~data ~payload:t0;
          Node.blocking node (fun () ->
              Engine.suspend (fun resume -> sender_go := Some (fun () -> resume ())))
        in
        send_one () (* warm the Message Cache *);
        send_one ()
      end
      else
        (* the receiver blocks on the channel for both messages: while it
           waits, the board sees the host as polling *)
        for _ = 1 to 2 do
          Node.blocking node (fun () ->
              Engine.suspend (fun resume -> wake := Some (fun () -> resume ())));
          match !sender_go with
          | Some f ->
              sender_go := None;
              f ()
          | None -> ()
        done);
  match !received with
  | (arrival, t0) :: _ -> Time.(arrival - t0)
  | [] -> failwith "Microbench: no delivery"

(* Time [reps] barriers and then [reps] allreduces on every node's
   application fiber, each op given the node's rank; node 0's clock is the
   measurement. Returns the per-op averages, in microseconds. *)
let timed_collectives cluster ~reps ~barrier ~allreduce =
  let eng = Cluster.engine cluster in
  let barrier_t = ref Time.zero and allreduce_t = ref Time.zero in
  let time total node op =
    for _ = 1 to reps do
      let t0 = Engine.now eng in
      op (Node.id node);
      if Node.id node = 0 then total := Time.( + ) !total Time.(Engine.now eng - t0)
    done
  in
  Cluster.run_app cluster (fun node ->
      time barrier_t node barrier;
      time allreduce_t node allreduce);
  let per t = Time.to_us_float t /. float_of_int reps in
  (per !barrier_t, per !allreduce_t)

(* Collective-operation latency: [reps] barriers plus [reps] integer
   allreduces over a fresh cluster, through either the NIC-resident
   combining tree or the host-driven Mp paths — the same episode count
   either way, so the per-op averages and the interrupt totals are
   comparable across interfaces and implementations. *)
type collective_point = {
  barrier_us : float;  (* average per-barrier latency *)
  allreduce_us : float;  (* average per-allreduce latency *)
  interrupts : int;  (* host interrupts taken, summed over nodes *)
}

let collective_latency ?(reps = 8) ?topology ?fanout ~kind ~nodes ~nic () =
  let module Mp = Cni_mp.Mp in
  let cluster : int Mp.envelope Cluster.t = Cluster.create ?topology ~nic_kind:kind ~nodes () in
  let eps = Mp.install ~nic_collectives:nic ?fanout cluster in
  let barrier_us, allreduce_us =
    timed_collectives cluster ~reps
      ~barrier:(fun r -> Mp.barrier eps.(r))
      ~allreduce:(fun r -> ignore (Mp.allreduce eps.(r) ~op:( + ) ~bytes:8 r))
  in
  let interrupts = Cluster.sum cluster (fun n -> (Nic.stats (Node.nic n)).Nic.interrupts) in
  { barrier_us; allreduce_us; interrupts }

(* Receive-policy behaviour at a controlled arrival rate. Node 0 paces
   [count] frames [gap] apart; node 1's application computes throughout (it
   is never blocked on the network), so the wakeup policy alone decides how
   each frame reaches the host: an interrupt stolen from the computation, a
   ring check, or — for the adaptive policy — whatever mode the measured
   rate selects. AIH is off: this exercises the ADC host-delivery path the
   policies govern. *)
type rx_point = { rx_stats : Nic.stats; rx_latency_us : float (* mean send-to-handler *) }

let rx_policy_sweep ?(count = 200) ?(rx_batch = 1) ~policy ~gap () =
  let kind =
    `Cni { Nic.default_cni_options with Nic.aih = false; rx_policy = policy; rx_batch }
  in
  let cluster : Time.t Cluster.t = Cluster.create ~nic_kind:kind ~nodes:2 () in
  let eng = Cluster.engine cluster in
  let got = ref 0 and lat_sum = ref Time.zero in
  let receiver_nic = Node.nic (Cluster.node cluster 1) in
  ignore
    (Nic.install_handler receiver_nic ~pattern:(Wire.pattern_channel ~channel) ~code_bytes:64
       (fun _ pkt ->
         incr got;
         lat_sum := Time.(!lat_sum + (Engine.now eng - pkt.Cni_atm.Fabric.payload))));
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then
        for _ = 1 to count do
          Nic.send (Node.nic node) ~dst:1 ~header:(header ~src:0) ~body_bytes:0
            ~data:Nic.No_data ~payload:(Engine.now eng);
          Engine.delay gap
        done
      else
        while !got < count do
          Node.work node 2_000;
          Node.overhead_time node Time.zero (* flush, so simulated time advances *)
        done);
  { rx_stats = Nic.stats receiver_nic;
    rx_latency_us = Time.to_us_float !lat_sum /. float_of_int count }

(* Wall-clock cost of the simulator's own classification step — the one data
   structure on the per-packet hot path — comparing the indexed DAG walk
   against the O(patterns) reference scan, at a growing pattern count (one
   pattern per channel, the AIH/collectives layout). This measures real
   host time, not simulated time. *)
type classifier_point = {
  cls_patterns : int;
  indexed_ns : float;
  linear_ns : float;
  cls_speedup : float;
}

let classifier_ops ~patterns () =
  let module Classifier = Cni_pathfinder.Classifier in
  let cls = Classifier.create () in
  for ch = 0 to patterns - 1 do
    ignore (Classifier.add cls (Wire.pattern_channel ~channel:ch) ch)
  done;
  let headers =
    Array.init 64 (fun i ->
        let channel = i * patterns / 64 in
        Wire.encode
          { Wire.kind = 1; cacheable = false; has_data = false; src = 0; channel;
            obj = 0; aux = 0 })
  in
  let measure f =
    (* grow the batch until it spans enough CPU time for Sys.time's
       resolution, then report per-op cost *)
    let rec run n =
      let t0 = Sys.time () in
      for i = 0 to n - 1 do
        f (Array.unsafe_get headers (i land 63))
      done;
      let dt = Sys.time () -. t0 in
      if dt < 0.05 then run (n * 4) else dt /. float_of_int n *. 1e9
    in
    run 1024
  in
  let indexed_ns = measure (fun h -> ignore (Classifier.classify cls h)) in
  let linear_ns = measure (fun h -> ignore (Classifier.classify_linear cls h)) in
  { cls_patterns = patterns; indexed_ns; linear_ns; cls_speedup = linear_ns /. indexed_ns }

(* Static-verifier throughput over the shipped corpus plus generated
   collectives firmware: how much wall-clock the install-time admission
   check itself costs. This is simulator CPU time (the verifier is real
   code), measured like [classifier_ops]. *)
type verifier_point = {
  vp_programs : int;  (* distinct programs in the measured mix *)
  vp_verifies_per_sec : float;
  vp_us_per_program : float;
}

let verifier_throughput () =
  let module Verify = Cni_aih.Aih_verify in
  let module Cir = Cni_mp.Collectives_ir in
  let module Rir = Cni_nic.Reliable_ir in
  let programs =
    List.map snd Cni_aih.Aih_corpus.good
    @ List.map (fun (_, _, p) -> p) Cni_aih.Aih_corpus.bad
    @ List.concat_map
        (fun op ->
          List.map
            (fun (rank, size, fanout) -> Cir.program ~op ~rank ~size ~fanout)
            [ (0, 8, 2); (3, 8, 2); (7, 64, 4) ])
        [ Cir.Sum; Cir.Max; Cir.Min ]
    (* streaming firmware: the per-byte/line-rate analysis is the costly
       verifier path, so the mix must exercise it *)
    @ List.concat_map
        (fun size -> [ Rir.rx_program ~size; Rir.tx_program ~size ])
        [ 2; 8; 64 ]
  in
  let programs = Array.of_list programs in
  let n = Array.length programs in
  let rec run batch =
    let t0 = Sys.time () in
    for i = 0 to batch - 1 do
      ignore (Verify.verify programs.(i mod n))
    done;
    let dt = Sys.time () -. t0 in
    if dt < 0.05 then run (batch * 4)
    else
      let per = dt /. float_of_int batch in
      { vp_programs = n; vp_verifies_per_sec = 1. /. per; vp_us_per_program = per *. 1e6 }
  in
  run 256

(* Verified-firmware vs closure handler activation cost, on the simulated
   clock: the same barrier/allreduce episodes through [Collectives] (flat
   per-dispatch charge) and [Collectives_ir] (per-instruction charge under
   the interpreter), with the certificate's worst case alongside what an
   episode actually costs. *)
type activation_point = {
  act_nodes : int;
  act_closure_barrier_us : float;
  act_ir_barrier_us : float;
  act_closure_allreduce_us : float;
  act_ir_allreduce_us : float;
  act_wcet_nic_cycles : int;  (* certificate bound, rank 0's firmware *)
  act_code_bytes : int;  (* certified object size, rank 0's firmware *)
}

let aih_activation ~nodes () =
  let module Collectives = Cni_mp.Collectives in
  let module Cir = Cni_mp.Collectives_ir in
  let cluster () : int Cluster.t = Cluster.create ~nic_kind:(Runner.cni ()) ~nodes () in
  let closure_barrier, closure_allreduce =
    let c = cluster () in
    let eps = Collectives.install ~inject:Fun.id ~project:Fun.id c in
    timed_collectives c ~reps:8
      ~barrier:(fun r -> Collectives.barrier eps.(r))
      ~allreduce:(fun r -> ignore (Collectives.allreduce eps.(r) ~op:( + ) r))
  in
  let c = cluster () in
  let eps = Cir.install ~op:Cir.Sum ~inject:Fun.id ~project:Fun.id c in
  let ir_barrier, ir_allreduce =
    timed_collectives c ~reps:8
      ~barrier:(fun r -> Cir.barrier eps.(r))
      ~allreduce:(fun r -> ignore (Cir.allreduce eps.(r) r))
  in
  let wcet, bytes =
    match Cir.cert eps.(0) with
    | Some cert -> Cni_aih.Aih_verify.(cert.wcet_nic_cycles, cert.code_bytes)
    | None -> (0, 0)
  in
  {
    act_nodes = nodes;
    act_closure_barrier_us = closure_barrier;
    act_ir_barrier_us = ir_barrier;
    act_closure_allreduce_us = closure_allreduce;
    act_ir_allreduce_us = ir_allreduce;
    act_wcet_nic_cycles = wcet;
    act_code_bytes = bytes;
  }

(* Closure reliability layer vs firmware-compiled reliable endpoints, on the
   simulated clock: the same lockstep ring through both, reported per
   delivered message, with the streaming rx certificate alongside — the
   admission evidence for the firmware that produced the firmware column. *)
type reliable_point = {
  rel_nodes : int;
  rel_messages : int;  (* per node *)
  rel_closure_us : float;  (* per delivered message, closure layer *)
  rel_firmware_us : float;  (* per delivered message, firmware endpoints *)
  rel_wcet_nic_cycles : int;  (* streaming rx certificate, per activation *)
  rel_wcet_per_byte_milli : int;  (* streaming rx certificate, per byte *)
}

let reliable_firmware_activation () =
  let nodes = 2 and messages = 8 in
  let per impl =
    let o =
      Reliable_flow.run impl
        { Reliable_flow.default with Reliable_flow.nodes; messages; body_bytes = 96 }
    in
    float_of_int o.Reliable_flow.elapsed_ps
    /. 1e6
    /. float_of_int (List.length o.Reliable_flow.delivered)
  in
  let cert =
    match Cni_aih.Aih_verify.verify (Cni_nic.Reliable_ir.rx_program ~size:nodes) with
    | Ok c -> c
    | Error rjs ->
        failwith ("Microbench: reliable rx rejected: " ^ Cni_aih.Aih_verify.explain_all rjs)
  in
  {
    rel_nodes = nodes;
    rel_messages = messages;
    rel_closure_us = per Reliable_flow.Closure;
    rel_firmware_us = per Reliable_flow.Firmware;
    rel_wcet_nic_cycles = cert.Cni_aih.Aih_verify.wcet_nic_cycles;
    rel_wcet_per_byte_milli = cert.Cni_aih.Aih_verify.wcet_per_byte_milli;
  }

type point = { bytes : int; cni_us : float; standard_us : float; reduction_pct : float }

let sweep ~sizes () =
  List.map
    (fun bytes ->
      (* app-level delivery on CNI goes through the ADC + polling hybrid,
         not an AIH (there is no protocol code to run, just data arrival) *)
      let cni_kind = Runner.cni ~aih:false () in
      let c = Time.to_us_float (latency ~kind:cni_kind ~bytes ()) in
      let s = Time.to_us_float (latency ~kind:`Standard ~bytes ()) in
      { bytes; cni_us = c; standard_us = s; reduction_pct = 100. *. (s -. c) /. s })
    sizes
