(* Lockstep reliable-delivery flow: the parity harness between the closure
   reliability layer ({!Cni_nic.Reliable} driven inside [Nic]) and the
   firmware-compiled endpoints ({!Cni_nic.Reliable_ir}).

   The traffic pattern is a token ring: node 0 sends [messages] frames to
   node 1, which forwards the token by sending its own [messages] frames to
   node 2 once it has received all of node 0's, and so on around the ring.
   Each sender also waits for every frame to be acknowledged before posting
   the next, so exactly one frame (data or its ack) is on the fabric at any
   instant, cluster-wide. That discipline is what makes the comparison
   exact: the fault model draws its random stream per frame in injection
   order, so two runs that put the same frame sequence on the wire suffer
   identical loss, corruption and drop verdicts — and must then produce
   identical delivery outcomes and protocol counters, whichever
   implementation recovered from them. *)

module Engine = Cni_engine.Engine
module Time = Cni_engine.Time
module Sync = Cni_engine.Sync
module Faults = Cni_atm.Faults
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire
module Reliable = Cni_nic.Reliable
module Reliable_ir = Cni_nic.Reliable_ir
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node

type impl = Closure | Firmware

type config = {
  nic : Cluster.nic_kind;
  nodes : int;
  messages : int;
  body_bytes : int;
  faults : Faults.config option;
  pace : Time.t option;
}

let default =
  {
    nic = `Cni Nic.default_cni_options;
    nodes = 2;
    messages = 8;
    body_bytes = 96;
    faults = None;
    pace = None;
  }

type counters = Reliable_ir.stats = {
  retransmits : int; acks_tx : int; acks_rx : int; rx_duplicates : int }

type outcome = {
  delivered : (int * int * int) list;
  per_node : counters array;
  elapsed_ps : int;
  checksum : int;
}

(* the wire channel the closure run's application frames ride on (the
   firmware run uses Reliable_ir's own channels instead) *)
let closure_channel = 11

(* payload value of message [i] (1-based) from [src]: distinct across the
   whole run so a misdelivered or duplicated frame shifts the checksum *)
let value_of ~src ~i = (src lsl 16) lor i

let checksum_of ~delivered ~(per_node : counters array) =
  let h = ref 0x9e37 in
  let mix x = h := ((!h * 31) + x + 1) land 0x3FFFFFFF in
  List.iter
    (fun (r, s, v) ->
      mix r;
      mix s;
      mix v)
    delivered;
  Array.iter
    (fun c ->
      mix c.retransmits;
      mix c.acks_tx;
      mix c.acks_rx;
      mix c.rx_duplicates)
    per_node;
  !h

let finish cluster ~received ~per_node =
  let delivered =
    List.concat (Array.to_list (Array.map (fun q -> List.rev !q) received))
  in
  {
    delivered;
    per_node;
    elapsed_ps = Time.to_ps (Cluster.elapsed cluster);
    checksum = checksum_of ~delivered ~per_node;
  }

let watchdog = Time.s 30

(* With [pace] set, message [i] of node [r]'s flow is posted no earlier
   than absolute slot [pace * (r * messages + i - 1)]. The two
   implementations run the protocol at slightly different speeds (AIH
   cycles vs closure cost model); free-running, that skew accumulates
   until a timed fault window catches one of them mid-frame and not the
   other. An absolute grid much coarser than the skew realigns every send,
   which is what makes {e timed} fault schedules (crash/restart, link-down
   windows) comparable — probabilistic faults are order-based and do not
   need it. *)
let wait_slot cfg eng node ~rank ~i =
  match cfg.pace with
  | None -> ()
  | Some p ->
      let slot = Time.(p * ((rank * cfg.messages) + i - 1)) in
      let lag = Time.(slot - Engine.now eng) in
      if Time.to_ps lag > 0 then Node.blocking node (fun () -> Engine.delay lag)

(* The delivery-token plumbing both implementations share: per-node arrival
   logs and the ivar node [r]'s sender fiber blocks on until every frame
   from its ring predecessor has arrived. *)
let make_tokens n ~messages =
  let received = Array.init n (fun _ -> ref []) in
  let go = Array.init n (fun _ -> Sync.Ivar.create ()) in
  let record ~node ~src ~value =
    received.(node) := (node, src, value) :: !(received.(node));
    if List.length !(received.(node)) = messages && node > 0 then
      Sync.Ivar.fill go.(node) ()
  in
  (received, go, record)

let run_closure cfg =
  let n = cfg.nodes in
  let cluster =
    Cluster.create ?faults:cfg.faults ~reliability:Reliable.default ~nic_kind:cfg.nic
      ~nodes:n ()
  in
  let received, go, record = make_tokens n ~messages:cfg.messages in
  Array.iter
    (fun node ->
      let id = Node.id node in
      ignore
        (Nic.install_handler (Node.nic node)
           ~pattern:(Wire.pattern_channel ~channel:closure_channel)
           (fun _ctx pkt ->
             match Wire.decode_opt pkt.Cni_atm.Fabric.header with
             | Some h -> record ~node:id ~src:h.Wire.src ~value:pkt.Cni_atm.Fabric.payload
             | None -> ())))
    (Cluster.nodes cluster);
  Cluster.run_app ~watchdog cluster (fun node ->
      let r = Node.id node in
      let nic = Node.nic node in
      if r > 0 then Node.blocking node (fun () -> Sync.Ivar.read go.(r));
      let dst = (r + 1) mod n in
      for i = 1 to cfg.messages do
        wait_slot cfg (Cluster.engine cluster) node ~rank:r ~i;
        let header =
          Wire.encode
            {
              Wire.kind = 1;
              cacheable = false;
              has_data = false;
              src = r;
              channel = closure_channel;
              obj = i;
              aux = 0;
            }
        in
        Nic.send nic ~dst ~header ~body_bytes:cfg.body_bytes ~data:Nic.No_data
          ~payload:(value_of ~src:r ~i);
        (* serialize on the ack, as the firmware sender does on its ivar:
           at most one frame of ours is ever outstanding *)
        Node.blocking node (fun () ->
            while Nic.rel_pending_count nic > 0 do
              Engine.delay (Time.us 2)
            done)
      done);
  let per_node =
    Array.map
      (fun node ->
        match Nic.rel_stats (Node.nic node) with
        | Some rs ->
            {
              retransmits = rs.Nic.retransmits;
              acks_tx = rs.Nic.acks_tx;
              acks_rx = rs.Nic.acks_rx;
              rx_duplicates = rs.Nic.rx_duplicates;
            }
        | None -> { retransmits = 0; acks_tx = 0; acks_rx = 0; rx_duplicates = 0 })
      (Cluster.nodes cluster)
  in
  finish cluster ~received ~per_node

let run_firmware cfg =
  let n = cfg.nodes in
  let cluster =
    Cluster.create ?faults:cfg.faults ~reliability_off:true ~nic_kind:cfg.nic ~nodes:n ()
  in
  let received, go, record = make_tokens n ~messages:cfg.messages in
  let endpoints =
    Array.map
      (fun node ->
        let id = Node.id node in
        Reliable_ir.install
          ~engine:(Cluster.engine cluster)
          ~size:n
          ~deliver:(fun ~src ~seq:_ ~body_bytes:_ ~payload ->
            record ~node:id ~src ~value:payload)
          (Node.nic node))
      (Cluster.nodes cluster)
  in
  Cluster.run_app ~watchdog cluster (fun node ->
      let r = Node.id node in
      if r > 0 then Node.blocking node (fun () -> Sync.Ivar.read go.(r));
      let dst = (r + 1) mod n in
      for i = 1 to cfg.messages do
        wait_slot cfg (Cluster.engine cluster) node ~rank:r ~i;
        let acked =
          Reliable_ir.send endpoints.(r) ~dst ~body_bytes:cfg.body_bytes
            ~payload:(value_of ~src:r ~i)
        in
        Node.blocking node (fun () -> Sync.Ivar.read acked)
      done);
  finish cluster ~received ~per_node:(Array.map Reliable_ir.stats endpoints)

let run impl cfg =
  if cfg.nodes < 2 then invalid_arg "Reliable_flow.run: need at least two nodes";
  if cfg.messages < 1 then invalid_arg "Reliable_flow.run: need at least one message";
  match impl with Closure -> run_closure cfg | Firmware -> run_firmware cfg
