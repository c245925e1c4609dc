module Params = Cni_machine.Params

module Engine = Cni_engine.Engine
module Time = Cni_engine.Time
module Sync = Cni_engine.Sync
module Stats = Cni_engine.Stats
module Trace = Cni_engine.Trace
module Pool = Cni_engine.Pool

type 'a packet = {
  src : int;
  dst : int;
  vci : int;
  header : Bytes.t;
  body_bytes : int;
  payload : 'a;
  crc_ok : bool;
}

type stats = {
  packets : int;
  cells : int;
  wire_bytes : int;
  dropped : int;
  offered_packets : int;
  offered_cells : int;
  offered_wire_bytes : int;
  delivered_packets : int;
  delivered_cells : int;
  delivered_wire_bytes : int;
  hop_waits : int;
  banyan_conflicts : int;
}

type 'a t = {
  eng : Engine.t;
  p : Params.t;
  n : int;
  topo : Topology.t;
  (* one banyan model per switch (pow2-rounded internals), with mutable
     occupancy state the timing walk updates synchronously: *)
  models : Switch.t array;
  walk : Topology.Walk.t;  (* the one route cursor; a walk runs within one event *)
  out_free : Time.t array array;  (* per switch, per output port *)
  wire_free : Time.t array array;  (* per switch, [stage * ports + wire] *)
  single : bool;  (* one switch: take the literal seed timing path *)
  egress : Sync.Semaphore.t array;
  mutable ingress_free : Time.t array;
  receivers : (int -> unit) array;  (* each node's, over a delivered frame's record *)
  registry : Stats.Registry.t option;
  faults : Faults.t option;
  (* crashed nodes: frames to or from a down node are discarded, counted
     apart from the link-layer fault classes *)
  down : bool array;
  (* registered on first increment, so a fault-free run leaves the metrics
     snapshot exactly as it was before fault injection existed *)
  counters : (string, Stats.Counter.t) Hashtbl.t;
  mutable s_packets : int;
  mutable s_cells : int;
  mutable s_wire_bytes : int;
  mutable s_dropped : int;
  mutable s_offered_packets : int;
  mutable s_offered_cells : int;
  mutable s_offered_wire_bytes : int;
  mutable s_delivered_packets : int;
  mutable s_delivered_cells : int;
  mutable s_delivered_wire_bytes : int;
  mutable s_hop_waits : int;
  mutable s_banyan_conflicts : int;
  (* Frame records: a packet column and [words] int words per slot. On the
     wire, word 0 is the fault verdict ([verdict_code]) and word 1 the
     serialisation time, then the time the last bit is through the ingress
     port. The wire's stages are registered once, at [create]. *)
  frames : Pool.t;
  mutable f_pkt : 'a packet array;
  mutable f_words : int array;  (* slot [s]'s word [i] at [words * s + i] *)
  mutable st_transit : Engine.stage;
  mutable st_acquired : Engine.stage;  (* the egress link came free *)
  mutable st_serialised : Engine.stage;
  mutable st_delivered : Engine.stage;
}

(* what a free record's packet cell holds; never read (see [Heap.dummy]) *)
let no_packet () : 'a packet = Obj.magic 0

(* A verdict as an int: 0 pass, 1 drop, 2n + 2 lose n cells, 2n + 3
   corrupt n cells. *)
let verdict_code = function
  | Faults.Pass -> 0
  | Faults.Drop -> 1
  | Faults.Lose_cells n -> (2 * n) + 2
  | Faults.Corrupt n -> (2 * n) + 3

let frame_bytes pkt = Bytes.length pkt.header + pkt.body_bytes

let packet_cells p pkt = Params.cells_for p ~bytes:(frame_bytes pkt + 8)

(* The one wire-size formula: frame + AAL5 trailer, charged as full
   fixed-size cells — a sub-cell frame still burns a whole 53-byte cell.
   The Table 5 unrestricted variant has elastic cells, so it charges the
   unpadded frame plus one header per (single) cell. *)
let frame_wire_bytes p ~bytes =
  let total = bytes + 8 in
  let cells = Params.cells_for p ~bytes:total in
  if Params.unrestricted_cells p then total + (cells * p.Params.cell_header_bytes)
  else cells * (p.Params.cell_payload_bytes + p.Params.cell_header_bytes)

let wire_bytes p pkt = frame_wire_bytes p ~bytes:(frame_bytes pkt)

let serialize_time p ~wire = Params.wire_time p ~bytes:wire

let min_latency p ~bytes =
  let wire = frame_wire_bytes p ~bytes in
  Time.(serialize_time p ~wire + p.Params.switch_latency + (p.Params.link_latency * 2))

let counter t ~node name =
  let key = Printf.sprintf "%d/%s" node name in
  match Hashtbl.find_opt t.counters key with
  | Some c -> c
  | None ->
      let c =
        match t.registry with
        | Some reg -> Stats.Registry.counter reg ~node ~subsystem:"fabric" name
        | None -> Stats.Counter.create name
      in
      Hashtbl.replace t.counters key c;
      c

let counter_value t ~node name =
  match Hashtbl.find_opt t.counters (Printf.sprintf "%d/%s" node name) with
  | Some c -> Stats.Counter.value c
  | None -> 0

let emit t ~node ~label ~payload =
  if Trace.enabled_cat Trace.Atm then
    Trace.emit ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node Trace.Atm ~label ~payload

let drop_undeliverable t pkt =
  t.s_dropped <- t.s_dropped + 1;
  Stats.Counter.incr (counter t ~node:pkt.dst "undeliverable");
  if Trace.enabled_cat Trace.Atm then
    Trace.emit
      ~t_ps:(Time.to_ps (Engine.now t.eng))
      ~node:pkt.dst Trace.Atm
      ~label:(Printf.sprintf "undeliverable src=%d dst=%d vci=%d" pkt.src pkt.dst pkt.vci)
      ~payload:pkt.src

let nodes t = t.n
let params t = t.p
let topology t = t.topo
let words = 3

let new_frame t pkt =
  let s = Pool.alloc t.frames in
  if s >= Array.length t.f_pkt then begin
    let n = Pool.capacity t.frames in
    t.f_pkt <- Pool.extend t.f_pkt n (no_packet ());
    t.f_words <- Pool.extend t.f_words (words * n) 0
  end;
  t.f_pkt.(s) <- pkt;
  s

let free_frame t s =
  t.f_pkt.(s) <- no_packet ();
  Pool.release t.frames s

let frames_in_flight t = Pool.live t.frames

let[@inline] frame_packet t s = t.f_pkt.(s)
let[@inline] frame_word t s i = t.f_words.((words * s) + i)
let[@inline] set_frame_word t s i v = t.f_words.((words * s) + i) <- v
let set_frame_receiver t ~node f = t.receivers.(node) <- f

let set_receiver t ~node f =
  t.receivers.(node) <-
    (fun s ->
      let pkt = t.f_pkt.(s) in
      free_frame t s;
      f pkt)

let faults t = Option.map Faults.config t.faults
let undeliverable t ~node = counter_value t ~node "undeliverable"

let set_node_down t ~node down =
  if node < 0 || node >= t.n then invalid_arg "Fabric.set_node_down: node out of range";
  t.down.(node) <- down

let node_down t ~node =
  if node < 0 || node >= t.n then invalid_arg "Fabric.node_down: node out of range";
  t.down.(node)

let crash_drops t ~node = counter_value t ~node "crash_drops"

let fault_drops t ~node =
  counter_value t ~node "fault_frame_drops"
  + counter_value t ~node "fault_frames_lost"
  + counter_value t ~node "link_down_drops"

let path_latency t ~src ~dst ~bytes =
  let wire = frame_wire_bytes t.p ~bytes in
  let h = Topology.hops t.topo ~src ~dst in
  Time.(
    serialize_time t.p ~wire
    + (t.p.Params.switch_latency * h)
    + (t.p.Params.link_latency * (h + 1)))

(* Seed single-switch path: the frame crosses the central banyan while it
   serialises, so its internal wires are held from switch entry
   ([eta - ser]) until the last bit is through ([eta]). Overlap with a
   previous occupant is the classic banyan blocking condition; it is
   counted here, not charged — the paper's 500 ns switch latency is an
   end-to-end figure that already prices in average blocking. *)
let count_single_conflicts t ~eta ~ser pkt =
  let m = t.models.(0) in
  let ports = Switch.ports m in
  let wf = t.wire_free.(0) in
  let enter = Time.(eta - ser) in
  let last_stage = Switch.stages m - 1 in
  let conflicted = ref false in
  let w = ref pkt.src in
  for stage = 0 to last_stage do
    w := Switch.next_wire m ~stage ~wire:!w ~dst:pkt.dst;
    let idx = (stage * ports) + !w in
    (* the final stage's wire is the output port itself: contention there
       is ingress-port queueing, which the seed model already charges —
       only earlier stages are internal banyan blocking *)
    if stage < last_stage && wf.(idx) > enter then conflicted := true;
    wf.(idx) <- eta
  done;
  if !conflicted then t.s_banyan_conflicts <- t.s_banyan_conflicts + 1

(* Multi-switch path: walk the route hop by hop with cut-through at every
   switch. [last] tracks when the frame's last bit leaves the previous
   point; at each hop the last bit could leave the output port at
   [last + link + switch] were the switch idle, i.e. re-serialisation could
   start [ser] earlier than that. Output-port occupancy and internal banyan
   wire conflicts both push the start later (backpressure), and the delay
   compounds into every later hop. Returns the last-bit arrival time at the
   destination NIC. *)
let traverse t ~now ~ser pkt =
  let walk = t.walk in
  Topology.Walk.start walk ~src:pkt.src ~dst:pkt.dst;
  let last = ref now in
  let more = ref true in
  while !more do
    let h_switch = Topology.Walk.switch walk
    and h_in = Topology.Walk.in_port walk
    and h_out = Topology.Walk.out_port walk in
    let arrive = Time.(!last + t.p.Params.link_latency + t.p.Params.switch_latency) in
    let earliest = Time.(arrive - ser) in
    let m = t.models.(h_switch) in
    let ports = Switch.ports m in
    let wf = t.wire_free.(h_switch) in
    let last_stage = Switch.stages m - 1 in
    (* split the gates: the final stage's wire is the output port itself,
       so wires before it measure internal banyan blocking while the port
       (+ its wire) measures output contention *)
    let internal_gate = ref Time.zero in
    let wire_gate = ref Time.zero in
    let w = ref h_in in
    for stage = 0 to last_stage do
      w := Switch.next_wire m ~stage ~wire:!w ~dst:h_out;
      let busy = wf.((stage * ports) + !w) in
      if busy > !wire_gate then wire_gate := busy;
      if stage < last_stage && busy > !internal_gate then internal_gate := busy
    done;
    let out_gate = t.out_free.(h_switch).(h_out) in
    let start = Time.max earliest (Time.max out_gate !wire_gate) in
    if start > earliest then begin
      t.s_hop_waits <- t.s_hop_waits + 1;
      (* the label is built only when it will be written *)
      if Trace.enabled_cat Trace.Atm then
        emit t ~node:pkt.src
          ~label:(Printf.sprintf "hop-wait sw=%d out=%d" h_switch h_out)
          ~payload:(Time.to_ps Time.(start - earliest))
    end;
    if !internal_gate > earliest then t.s_banyan_conflicts <- t.s_banyan_conflicts + 1;
    let finish = Time.(start + ser) in
    t.out_free.(h_switch).(h_out) <- finish;
    (* the same wires again, now held until the last bit is through *)
    w := h_in;
    for stage = 0 to last_stage do
      w := Switch.next_wire m ~stage ~wire:!w ~dst:h_out;
      wf.((stage * ports) + !w) <- finish
    done;
    last := finish;
    more := Topology.Walk.next walk
  done;
  Time.(!last + t.p.Params.link_latency)

(* A frame dies at [node]'s end when that node is down, or its link is
   inside a down window at [at]: count and trace the loss (against [peer],
   the frame's other end) and say so. *)
let lost t ~node ~peer ~at =
  if t.down.(node) then begin
    Stats.Counter.incr (counter t ~node "crash_drops");
    emit t ~node ~label:"crash-drop" ~payload:peer;
    true
  end
  else if match t.faults with Some f -> Faults.link_down f ~node ~now:at | None -> false then begin
    Stats.Counter.incr (counter t ~node "link_down_drops");
    emit t ~node ~label:"link-down-drop" ~payload:peer;
    true
  end
  else false

(* A frame's life past injection, as the fabric's stages on its record:
   serialisation on the source's egress link, the switch walk, then
   reception at the destination's ingress port. *)
let ser t s = frame_word t s 1

let transit t s =
  let egress = t.egress.(t.f_pkt.(s).src) in
  if Sync.Semaphore.acquire_stage t.eng egress t.st_acquired s then
    Engine.after_stage t.eng (ser t s) t.st_serialised s

let acquired t s = Engine.after_stage t.eng (ser t s) t.st_serialised s

let serialised t s =
  let pkt = t.f_pkt.(s) and ser = ser t s in
  Sync.Semaphore.release t.egress.(pkt.src);
  (* last bit has left the source; it reaches the destination after the
     switch(es) and links. Cut-through reception: the ingress port was
     receiving while we were serialising, unless it was busy. *)
  let now = Engine.now t.eng in
  let eta =
    if t.single then begin
      let eta = Time.(now + t.p.Params.switch_latency + (t.p.Params.link_latency * 2)) in
      count_single_conflicts t ~eta ~ser pkt;
      eta
    end
    else traverse t ~now ~ser pkt
  in
  (* checked when the last bit arrives: a node that crashed while the
     frame was in flight loses it at its dead ingress port *)
  let v = frame_word t s 0 in
  if lost t ~node:pkt.dst ~peer:pkt.src ~at:eta then free_frame t s
  else if v = 1 then begin
    Stats.Counter.incr (counter t ~node:pkt.src "fault_frame_drops");
    emit t ~node:pkt.src ~label:"fault-drop" ~payload:pkt.dst;
    free_frame t s
  end
  else if v >= 2 && v land 1 = 0 then begin
    (* an incomplete frame never completes AAL5 reassembly at the
       receiver; it dies without occupying the ingress port *)
    let n = (v - 2) / 2 in
    Stats.Counter.add (counter t ~node:pkt.src "fault_cells_lost") n;
    Stats.Counter.incr (counter t ~node:pkt.src "fault_frames_lost");
    emit t ~node:pkt.src ~label:"fault-cell-loss" ~payload:n;
    free_frame t s
  end
  else begin
    if v >= 3 then begin
      let n = (v - 3) / 2 in
      Stats.Counter.add (counter t ~node:pkt.src "fault_cells_corrupted") n;
      Stats.Counter.incr (counter t ~node:pkt.src "fault_frames_corrupted");
      emit t ~node:pkt.src ~label:"fault-corrupt" ~payload:n;
      t.f_pkt.(s) <- { pkt with crc_ok = false }
    end;
    let start_recv = Time.max Time.(eta - ser) t.ingress_free.(pkt.dst) in
    let finish = Time.(start_recv + ser) in
    t.ingress_free.(pkt.dst) <- finish;
    set_frame_word t s 1 finish;
    Engine.after_stage t.eng Time.(finish - now) t.st_delivered s
  end

(* re-check liveness at delivery time: when the ingress port was busy,
   [finish > eta] and the node may have crashed (or its link gone down)
   while the frame queued — it must not be delivered then *)
let delivered t s =
  let pkt = t.f_pkt.(s) in
  if lost t ~node:pkt.dst ~peer:pkt.src ~at:(frame_word t s 1) then free_frame t s
  else begin
    t.s_delivered_packets <- t.s_delivered_packets + 1;
    t.s_delivered_cells <- t.s_delivered_cells + packet_cells t.p pkt;
    t.s_delivered_wire_bytes <- t.s_delivered_wire_bytes + wire_bytes t.p pkt;
    t.receivers.(pkt.dst) s
  end

(* a rejected frame's record is freed, so a bad address leaks none *)
let reject t s msg =
  free_frame t s;
  invalid_arg msg

let send_frame t s =
  let pkt = t.f_pkt.(s) in
  if pkt.src < 0 || pkt.src >= t.n then reject t s "Fabric.send: src out of range";
  if pkt.dst < 0 || pkt.dst >= t.n then reject t s "Fabric.send: dst out of range";
  if pkt.src = pkt.dst then reject t s "Fabric.send: src = dst";
  let cells = packet_cells t.p pkt in
  let wire = wire_bytes t.p pkt in
  emit t ~node:pkt.src ~label:"send" ~payload:pkt.dst;
  t.s_offered_packets <- t.s_offered_packets + 1;
  t.s_offered_cells <- t.s_offered_cells + cells;
  t.s_offered_wire_bytes <- t.s_offered_wire_bytes + wire;
  (* the frame's fate is drawn synchronously at injection time: the random
     stream then depends only on the (deterministic) order of send calls,
     never on how events interleave *)
  let verdict =
    match t.faults with None -> Faults.Pass | Some f -> Faults.judge f ~cells
  in
  (* a crashed node's pending DMA never makes it onto the wire *)
  if lost t ~node:pkt.src ~peer:pkt.dst ~at:(Engine.now t.eng) then free_frame t s
  else begin
    (* past the source-side drop gates: these bytes do go onto the wire *)
    t.s_packets <- t.s_packets + 1;
    t.s_cells <- t.s_cells + cells;
    t.s_wire_bytes <- t.s_wire_bytes + wire;
    set_frame_word t s 0 (verdict_code verdict);
    set_frame_word t s 1 (serialize_time t.p ~wire);
    (* the transit starts in an event of its own, at this instant *)
    Engine.at_stage t.eng (Engine.now t.eng) t.st_transit s
  end

let send t pkt = send_frame t (new_frame t pkt)

let create ?registry ?faults ?(topology = Topology.Single) eng p ~nodes =
  if nodes < 1 then invalid_arg "Fabric.create: need at least one node";
  let topo = Topology.of_kind topology ~nodes in
  let switches = Topology.switch_count topo in
  let models = Array.init switches (Topology.switch_model topo) in
  let t =
    {
      eng;
      p;
      n = nodes;
      topo;
      models;
      walk = Topology.Walk.create topo;
      out_free =
        Array.init switches (fun i -> Array.make (Topology.switch_ports topo i) Time.zero);
      wire_free =
        Array.init switches (fun i ->
            let m = models.(i) in
            Array.make (Switch.stages m * Switch.ports m) Time.zero);
      single = switches = 1;
      egress = Array.init nodes (fun _ -> Sync.Semaphore.create 1);
      ingress_free = Array.make nodes Time.zero;
      receivers = Array.make nodes ignore;
      registry;
      faults = Option.map Faults.create faults;
      down = Array.make nodes false;
      counters = Hashtbl.create 16;
      s_packets = 0;
      s_cells = 0;
      s_wire_bytes = 0;
      s_dropped = 0;
      s_offered_packets = 0;
      s_offered_cells = 0;
      s_offered_wire_bytes = 0;
      s_delivered_packets = 0;
      s_delivered_cells = 0;
      s_delivered_wire_bytes = 0;
      s_hop_waits = 0;
      s_banyan_conflicts = 0;
      frames = Pool.create ();
      f_pkt = [||];
      f_words = [||];
      st_transit = 0;
      st_acquired = 0;
      st_serialised = 0;
      st_delivered = 0;
    }
  in
  for i = 0 to nodes - 1 do
    set_receiver t ~node:i (drop_undeliverable t)
  done;
  t.st_transit <- Engine.register eng (transit t);
  t.st_acquired <- Engine.register eng (acquired t);
  t.st_serialised <- Engine.register eng (serialised t);
  t.st_delivered <- Engine.register eng (delivered t);
  t

let stats t =
  {
    packets = t.s_packets;
    cells = t.s_cells;
    wire_bytes = t.s_wire_bytes;
    dropped = t.s_dropped;
    offered_packets = t.s_offered_packets;
    offered_cells = t.s_offered_cells;
    offered_wire_bytes = t.s_offered_wire_bytes;
    delivered_packets = t.s_delivered_packets;
    delivered_cells = t.s_delivered_cells;
    delivered_wire_bytes = t.s_delivered_wire_bytes;
    hop_waits = t.s_hop_waits;
    banyan_conflicts = t.s_banyan_conflicts;
  }
