module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Time = Cni_engine.Time
module Stats = Cni_engine.Stats
module Trace = Cni_engine.Trace
module Params = Cni_machine.Params
module Bus = Cni_machine.Bus
module Fabric = Cni_atm.Fabric
module Classifier = Cni_pathfinder.Classifier
module Pattern = Cni_pathfinder.Pattern

type data = No_data | Page of { vaddr : int; bytes : int; cacheable : bool }

type host = Rx.host = {
  host_waiting : unit -> bool; steal : Time.t -> unit;
  invalidate_range : addr:int -> bytes:int -> unit; overhead : Time.t -> unit;
}

type 'a ctx = {
  ctx_node : int;
  charge : int -> unit;
  reply : dst:int -> header:Bytes.t -> body_bytes:int -> data:data -> payload:'a -> unit;
  deliver_page : vaddr:int -> bytes:int -> cacheable:bool -> unit;
}

type rx_adaptive = Rx.adaptive = {
  ra_alpha : float; ra_poll_gap : Time.t; ra_interrupt_gap : Time.t; ra_hysteresis : float;
}

let default_rx_adaptive = Rx.default_adaptive

type rx_policy = Rx.policy = Rx_interrupt | Rx_poll | Rx_hybrid | Rx_adaptive of rx_adaptive
type rx_mode = Rx.mode

type cni_options = {
  mc_bytes : int;
  mc_mode : Message_cache.mode;
  aih : bool;
  rx_policy : rx_policy;
  rx_batch : int;
}

let default_cni_options =
  { mc_bytes = Params.default.Params.message_cache_bytes;
    mc_mode = Message_cache.Update;
    aih = true;
    rx_policy = Rx_hybrid;
    rx_batch = 1 }

(* OSIRIS's per-packet software demultiplexing on the board processor; the
   paper's ATOMIC experience: expensive, worse under i-cache pressure *)
let osiris_classify_nic_cycles = 120

type kind = [ `Cni of cni_options | `Osiris | `Standard ]

type 'a handler_fn = 'a ctx -> 'a Fabric.packet -> unit

(* What the closure layer keeps of a sequenced frame besides its header. *)
type 'a tx = { body_bytes : int; data : data; payload : 'a }

type 'a rel = {
  r_tx : 'a tx Reliable.Sender.t;
  r_rx : Reliable.Receiver.t;
  r_acks_tx : Stats.Counter.t;
  r_acks_rx : Stats.Counter.t;
  r_rx_duplicates : Stats.Counter.t;
}

(* A sender table under this board's crash rule (existential over the
   protocol's frame type). *)
type sender = Sender : 'f Reliable.Sender.t -> sender

module Imap = Map.Make (Int)

(* A live installation: what a restart needs to load it again. *)
type 'a install = {
  pattern : Pattern.t;
  code_bytes : int;
  segment : unit -> int array;  (* a fresh board segment ([||]: none) *)
  handler : int array -> 'a handler_fn;  (* the handler over its loaded segment *)
  firmware : (Cni_aih.Aih_ir.program * int) option;  (* re-verified at this cell budget *)
}

(* Board memory: the classifier and each loaded install's entry and
   segment; its code bytes are the install table's. *)
type 'a board = {
  classifier : 'a handler_fn Classifier.t;
  loaded : (int, Classifier.handle * int array) Hashtbl.t;
}

let blank () = { classifier = Classifier.create (); loaded = Hashtbl.create 8 }

(* Residency. Board memory is [board], which a scrub drops and a restart
   rebuilds from [installs], and [mc]'s bindings, which a scrub clears (the
   bus snooper holds the cache). The host keeps the rest through every
   crash: [installs], the sender tables in [rel] and [senders], the
   receive windows in [rel], [rx]'s coalescing queue, the counters and the
   recovery latencies; and the wiring. *)
type 'a t = {
  eng : Engine.t;
  bus : Bus.t;
  fabric : 'a Fabric.t;
  p : Params.t;
  node : int;
  kind : kind;
  mc : Message_cache.t option;
  host : host;
  registry : Stats.Registry.t option;
  mutable rel : 'a rel option;  (* set once, right after creation *)
  mutable senders : sender list;
  nic_proc : Sync.Semaphore.t;  (* the 33 MHz processor is a shared resource *)
  tx_ring : unit Ring.t;  (* transmit descriptors are processed in order; a
                             single-slot descriptor ring whose full_stalls
                             counter exposes transmit-queue contention *)
  host_proc : Sync.Semaphore.t;  (* interrupt-level protocol work on the host
                                    serialises as well, [rx]'s included *)
  rx : ('a handler_fn, 'a Fabric.packet) Rx.t;  (* host delivery (CNI, AIH off) *)
  mutable board : 'a board option;  (* None from a scrub to the restart *)
  mutable installs : 'a install Imap.t;  (* by id, so in install order *)
  mutable next_install : int;
  mutable default_handler : 'a handler_fn;
  mutable alive : bool;
  mutable restarted_at : Time.t option;  (* pending recovery-latency measurement *)
  mutable recovery_latencies : Time.t list;  (* newest first *)
  (* error-path counters, registered on first increment so clean runs leave
     the metrics snapshot untouched *)
  lazy_counters : (string, Stats.Counter.t) Hashtbl.t;
  s_unmatched : Stats.Counter.t;
  s_tx_packets : Stats.Counter.t;
  s_tx_data_packets : Stats.Counter.t;
  s_tx_dma_bytes : Stats.Counter.t;
  s_rx_packets : Stats.Counter.t;
  s_rx_dma_bytes : Stats.Counter.t;
  s_interrupts : Stats.Counter.t;
}

type stats = {
  tx_packets : int;
  tx_data_packets : int;
  tx_dma_bytes : int;
  rx_packets : int;
  rx_dma_bytes : int;
  interrupts : int;
  polls : int;
  wasted_polls : int;
  coalesced : int;
  mode_switches : int;
  mode_interrupt : int;
  mode_hybrid : int;
  mode_poll : int;
  unmatched : int;
}

type rel_stats = {
  retransmits : int;
  acks_tx : int;
  acks_rx : int;
  rx_duplicates : int;
  tx_unacked : int;
  rto_capped : int;
}

let node t = t.node
let params t = t.p
let is_cni t = match t.kind with `Cni _ -> true | `Osiris | `Standard -> false
let aih_enabled t = match t.kind with `Cni { aih; _ } -> aih | `Osiris | `Standard -> false
let message_cache t = t.mc

let network_cache_hit_ratio t =
  match t.mc with Some mc -> Message_cache.hit_ratio mc | None -> 0.

(* [None] for boards without a Message Cache or with no lookups yet; lets
   aggregations skip idle nodes. *)
let network_cache_hit_ratio_opt t =
  match t.mc with Some mc -> Message_cache.hit_ratio_opt mc | None -> None

let registry t = t.registry

let vpage_of t vaddr = vaddr / t.p.Params.page_bytes

let trace t ~label ~payload =
  if Trace.enabled_cat Trace.Nic then
    Trace.emit ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node:t.node Trace.Nic ~label ~payload

let lcounter t name =
  match Hashtbl.find_opt t.lazy_counters name with
  | Some c -> c
  | None ->
      let c =
        match t.registry with
        | Some reg -> Stats.Registry.counter reg ~node:t.node ~subsystem:"nic" name
        | None -> Stats.Counter.create name
      in
      Hashtbl.replace t.lazy_counters name c;
      c

let lvalue t name =
  match Hashtbl.find_opt t.lazy_counters name with
  | Some c -> Stats.Counter.value c
  | None -> 0

let rx_undecodable t = lvalue t "rx_undecodable"
let rx_crc_errors t = lvalue t "rx_crc_errors"

let rel_stats t =
  Option.map
    (fun r ->
      {
        retransmits = Reliable.Sender.retransmits r.r_tx;
        acks_tx = Stats.Counter.value r.r_acks_tx;
        acks_rx = Stats.Counter.value r.r_acks_rx;
        rx_duplicates = Stats.Counter.value r.r_rx_duplicates;
        tx_unacked = Reliable.Sender.unacked r.r_tx;
        rto_capped = Reliable.Sender.rto_capped r.r_tx;
      })
    t.rel

(* frames sequenced but not yet acknowledged, parked ones included; 0 with
   reliability off — lets a sender serialise on delivery without an
   application-level ack *)
let rel_pending_count t =
  match t.rel with Some r -> Reliable.Sender.unacked r.r_tx | None -> 0

(* Occupy the board's processor for a bounded burst of work, then [k].
   Concurrent transmissions, receptions and handler activations on one board
   serialise here; a handler that blocks (e.g. a server-side fault) releases
   the processor between bursts, so reply processing can still run. *)
let occupy eng proc d = Engine.await (fun _ k -> Sync.Semaphore.hold_then eng proc d k)
let nic_busy_then t d k = Sync.Semaphore.hold_then t.eng t.nic_proc d k

(* Same for interrupt-level work on the host CPU: two packets arriving at a
   standard board do not get their kernel service in parallel. Held only per
   bounded burst, so a protocol handler that blocks lets later interrupts
   through (nested service, as a real kernel would). *)
let host_busy_then t d k = Sync.Semaphore.hold_then t.eng t.host_proc d k

(* Kernel work performed on the host without an application fiber to bill:
   occupy the interrupt level, report it as service and steal the CPU from a
   computing application (mirrors run_on_host's accounting), then run [k]. *)
let host_kernel_burst t d k =
  host_busy_then t d (fun () ->
      t.host.overhead d;
      if not (t.host.host_waiting ()) then t.host.steal d;
      k ())

(* A frame's fixed stages on the board are engine callbacks; [stage] begins
   one in an event of its own at this instant. A protocol handler is a
   fiber, started inside the event that reaches it and named after the
   fabric delivery it serves. *)
let stage t f = Engine.at t.eng (Engine.now t.eng) f
let start_handler t f = Engine.start t.eng ~name:"fabric-send" f

(* a control transfer into board code: a descriptor pickup or a handler *)
let dispatch_time t = Params.nic_cycles t.p t.p.Params.handler_dispatch_nic_cycles

(* ------------------------------------------------------------------ *)
(* Transmit                                                           *)
(* ------------------------------------------------------------------ *)

(* Resolve a descriptor's data buffer, then [k]: on a Message Cache hit the
   board already holds a consistent copy, and no host-memory DMA is needed. *)
let fetch_data t data k =
  match data with
  | No_data -> k ()
  | Page { vaddr; bytes; cacheable } -> (
      Stats.Counter.incr t.s_tx_data_packets;
      let dma k =
        Bus.dma_then t.bus ~dir:Bus.Dma_from_memory ~addr:vaddr ~bytes (fun () ->
            Stats.Counter.add t.s_tx_dma_bytes bytes;
            k ())
      in
      match t.mc with
      | Some mc when Message_cache.lookup mc ~vpage:(vpage_of t vaddr) -> k ()
      | Some mc ->
          dma (fun () ->
              if cacheable then Message_cache.bind mc ~vpage:(vpage_of t vaddr);
              k ())
      | None -> dma k)

(* NIC-side half of a transmission. The board picks the descriptor off the
   transmit queue, resolves the data buffer (Message Cache on CNI), segments
   the frame and hands the cells to the wire. *)
let nic_transmit t ~dst ~header ~body_bytes ~data ~payload =
  let p = t.p in
  if not t.alive then
    (* a descriptor reaching a dead board is lost with it (a sequenced
       original stays pending and retransmits after the restart) *)
    Stats.Counter.incr (lcounter t "crash_tx_drops")
  else
    (* the board works its transmit queue one descriptor at a time: a
       pipelined resend of a buffer must observe the Message Cache binding
       its predecessor created *)
    Ring.push_then t.eng t.tx_ring () (fun () ->
        if Trace.enabled_cat Trace.Nic then
          Trace.span_begin ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node:t.node Trace.Nic
            ~label:"tx" ~payload:dst;
        nic_busy_then t (dispatch_time t) (fun () ->
            fetch_data t data (fun () ->
                (* bulk data rides in the same frame: it must be counted in
                   the wire size (cells, serialisation) exactly like inline
                   body bytes *)
                let data_bytes = match data with No_data -> 0 | Page { bytes; _ } -> bytes in
                let pkt =
                  { Fabric.src = t.node; dst; vci = t.node; header;
                    body_bytes = body_bytes + data_bytes; payload; crc_ok = true }
                in
                let cells = Fabric.packet_cells p pkt in
                nic_busy_then t (Params.nic_cycles p (cells * p.Params.sar_cell_nic_cycles))
                  (fun () ->
                    Stats.Counter.incr t.s_tx_packets;
                    if Trace.enabled_cat Trace.Nic then
                      Trace.span_end ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node:t.node
                        Trace.Nic ~label:"tx" ~payload:dst;
                    Ring.pop_then t.eng t.tx_ring (fun () -> Fabric.send t.fabric pkt)))))

(* The closure layer's transmissions of a sequenced frame. On the CNI/OSIRIS
   boards the retransmission timer and the resend run in board firmware; the
   standard interface keeps them in the kernel, so every firing costs the
   host an interrupt plus the kernel send path. *)
let transmit_frame t (e : 'a tx Reliable.Sender.frame) =
  let header = e.header and { body_bytes; data; payload } = e.body in
  stage t (fun () -> nic_transmit t ~dst:e.dst ~header ~body_bytes ~data ~payload)

let retransmit_frame t (e : 'a tx Reliable.Sender.frame) =
  trace t ~label:"retransmit" ~payload:e.seq;
  stage t (fun () ->
      let resend () =
        nic_transmit t ~dst:e.dst ~header:e.header ~body_bytes:e.body.body_bytes
          ~data:e.body.data ~payload:e.body.payload
      in
      match t.kind with
      | `Cni _ | `Osiris -> resend ()
      | `Standard ->
          Stats.Counter.incr t.s_interrupts;
          host_kernel_burst t
            Time.(t.p.Params.interrupt_latency
                  + Params.cpu_cycles t.p t.p.Params.kernel_send_cycles)
            resend)

(* Queue a frame for transmission. With reliability enabled, every Wire
   frame goes into the sender table, which stamps it with a per-destination
   sequence number and tracks it until acknowledged — parking it if the
   board is down. Other frames (reliability off, or non-Wire) go straight to
   the board; posted into a dead board's ADC window, such a frame vanishes
   with the board, as a fabric loss would. *)
let submit t ~dst ~header ~body_bytes ~data ~payload =
  let plain () =
    if t.alive then stage t (fun () -> nic_transmit t ~dst ~header ~body_bytes ~data ~payload)
    else Stats.Counter.incr (lcounter t "crash_tx_drops")
  in
  match t.rel with
  | None -> plain ()
  | Some r -> (
      match Wire.decode_opt header with
      | None -> plain ()
      | Some _ -> Reliable.Sender.post r.r_tx ~dst ~header { body_bytes; data; payload })

(* The host's cost of posting a descriptor: the user-level ADC enqueue on
   CNI/OSIRIS, a kernel entry on the standard board. *)
let post_cycles t =
  match t.kind with
  | `Cni _ | `Osiris -> t.p.Params.adc_enqueue_cycles
  | `Standard -> t.p.Params.kernel_send_cycles

let charge_post t =
  let cost = Params.cpu_cycles t.p (post_cycles t) in
  t.host.overhead cost;
  Engine.delay cost

(* Host-side entry: charge the host path cost, then hand off to the board. *)
let send t ~dst ~header ~body_bytes ~data ~payload =
  charge_post t;
  submit t ~dst ~header ~body_bytes ~data ~payload

(* ------------------------------------------------------------------ *)
(* Receive                                                            *)
(* ------------------------------------------------------------------ *)

let make_ctx t ~on_charge ~reply_host_cycles =
  {
    ctx_node = t.node;
    charge = on_charge;
    reply =
      (fun ~dst ~header ~body_bytes ~data ~payload ->
        (* replies issued from protocol context: under AIH the board is
           driven directly (no host cost); a host-resident handler pays its
           kernel or ADC send path, charged through [on_charge] *)
        if reply_host_cycles > 0 then on_charge reply_host_cycles;
        submit t ~dst ~header ~body_bytes ~data ~payload);
    deliver_page =
      (fun ~vaddr ~bytes ~cacheable ->
        if cacheable then
          Option.iter (fun mc -> Message_cache.bind mc ~vpage:(vpage_of t vaddr)) t.mc;
        Bus.dma t.bus ~dir:Bus.Dma_to_memory ~addr:vaddr ~bytes;
        Stats.Counter.add t.s_rx_dma_bytes bytes;
        t.host.invalidate_range ~addr:vaddr ~bytes)
  }

(* Protocol context on the host CPU: each charge occupies the interrupt
   level and adds to [spent]. *)
let host_ctx t ~spent ~reply_host_cycles =
  make_ctx t ~reply_host_cycles ~on_charge:(fun n ->
      let d = Params.cpu_cycles t.p n in
      spent := Time.( + ) !spent d;
      occupy t.eng t.host_proc d)

(* Run a protocol handler on the host CPU, charging its time as host
   overhead and stealing the CPU from a computing application. *)
let run_on_host t ~base ~reply_host_cycles handler pkt =
  let spent = ref base in
  handler (host_ctx t ~spent ~reply_host_cycles) pkt;
  t.host.overhead !spent;
  if not (t.host.host_waiting ()) then t.host.steal !spent

(* One per-packet interrupt delivery (OSIRIS, standard): count the
   interrupt, occupy the interrupt level for [cost], then run the handler on
   the host with [cost] as its base, which run_on_host charges once as
   overhead and steals once from a computing application. *)
let interrupt_host t ~cost ~reply_host_cycles handler pkt =
  Stats.Counter.incr t.s_interrupts;
  host_busy_then t cost (fun () ->
      start_handler t (fun () -> run_on_host t ~base:cost ~reply_host_cycles handler pkt))

(* Protocol code on the NIC processor, entered after a dispatch, gets a
   context that charges at the NIC clock and replies free of host cost. *)
let board_ctx t =
  make_ctx t ~reply_host_cycles:0 ~on_charge:(fun n ->
      occupy t.eng t.nic_proc (Params.nic_cycles t.p n))

(* Host-initiated protocol action without an incoming packet: the local
   arrival of a NIC-resident collective, for instance, is the host posting a
   descriptor that the board's handler then processes. Under AIH the board
   picks the descriptor up asynchronously (dispatch + [ctx.charge] at NIC
   cycles) and the host only pays its enqueue cost; on every other interface
   the protocol step runs synchronously on the host CPU in the calling fiber
   — no interrupt is taken (the host initiated the action), but the work is
   still serialised with interrupt-level service and reported as overhead. *)
let local_dispatch t f =
  charge_post t;
  if aih_enabled t then
    Engine.spawn t.eng ~name:"nic-local-dispatch" (fun () ->
        occupy t.eng t.nic_proc (dispatch_time t);
        f (board_ctx t))
  else begin
    let spent = ref Time.zero in
    f (host_ctx t ~spent ~reply_host_cycles:(post_cycles t));
    t.host.overhead !spent
  end

(* The classification-stage cost of looking at one frame and discarding it
   (a duplicate the window caught): hardware lookup on the CNI, software
   demux on OSIRIS, a full interrupt + kernel demux on the standard board. *)
let discard t =
  let p = t.p in
  match t.kind with
  | `Cni _ ->
      Engine.after t.eng (Time.ns p.Params.pathfinder_cell_ns) (fun () ->
          nic_busy_then t (dispatch_time t) ignore)
  | `Osiris -> nic_busy_then t (Params.nic_cycles p osiris_classify_nic_cycles) ignore
  | `Standard ->
      Stats.Counter.incr t.s_interrupts;
      host_kernel_burst t
        Time.(p.Params.interrupt_latency + Params.cpu_cycles p p.Params.kernel_recv_cycles)
        ignore

(* Acknowledge a sequenced frame. The CNI/OSIRIS boards generate the ack in
   firmware (its transmit cost is the usual board dispatch + SAR inside
   nic_transmit); the standard interface builds it in the kernel. *)
let send_ack t r ~dst ~seq =
  Stats.Counter.incr r.r_acks_tx;
  let header =
    Wire.encode
      { Wire.kind = Reliable.ack_kind; cacheable = false; has_data = false;
        src = t.node; channel = Reliable.ack_channel; obj = seq; aux = 0 }
  in
  stage t (fun () ->
      (* acks carry no payload and are intercepted before classification at
         the far end, so the placeholder is never read (cf. Mp's barrier
         placeholder) *)
      let ack () =
        nic_transmit t ~dst ~header ~body_bytes:0 ~data:No_data ~payload:(Obj.magic 0)
      in
      match t.kind with
      | `Cni _ | `Osiris -> ack ()
      | `Standard -> host_kernel_burst t (Params.cpu_cycles t.p t.p.Params.kernel_send_cycles) ack)

(* An ack arrived: settle the matching pending frame (if it is still
   pending: the ack may name an already-settled (re)transmission). *)
let handle_ack t (h : Wire.t) (pkt : 'a Fabric.packet) =
  match t.rel with
  | None -> () (* reliability off: stray ack, drop silently *)
  | Some r ->
      Stats.Counter.incr r.r_acks_rx;
      ignore (Reliable.Sender.settle r.r_tx ~dst:pkt.Fabric.src ~seq:h.Wire.obj);
      discard t

(* Duplicate suppression + acknowledgment for one decoded frame; [true] when
   the frame is fresh or unsequenced and must be dispatched. *)
let rel_admit t (h : Wire.t) (pkt : 'a Fabric.packet) =
  match t.rel with
  | None -> true
  | Some r -> (
      let src = pkt.Fabric.src and aux = h.Wire.aux in
      match Reliable.Receiver.judge r.r_rx ~src ~aux with
      | `Unsequenced -> true
      | `Fresh ->
          send_ack t r ~dst:src ~seq:aux;
          true
      | `Duplicate ->
          (* ack duplicates too: the retransmission usually means our
             previous ack was lost *)
          send_ack t r ~dst:src ~seq:aux;
          Stats.Counter.incr r.r_rx_duplicates;
          trace t ~label:"rx-duplicate" ~payload:aux;
          discard t;
          false)

(* The receive stages after reassembly, up to the frame's handler. *)
let reassembled t (pkt : 'a Fabric.packet) =
  let p = t.p in
  if not t.alive then
    (* the crash landed during reassembly: the frame dies with the board *)
    Stats.Counter.incr (lcounter t "crash_rx_drops")
  else if not pkt.Fabric.crc_ok then begin
    (* the AAL5 CRC computed during reassembly does not match the trailer:
       the board discards the frame (a sequenced original will be
       retransmitted by its sender's timer) *)
    Stats.Counter.incr (lcounter t "rx_crc_errors");
    trace t ~label:"rx-crc-drop" ~payload:pkt.Fabric.src
  end
  else
    match Wire.decode_opt pkt.Fabric.header with
    | None ->
        (* not a frame any pattern could classify: count and drop *)
        Stats.Counter.incr (lcounter t "rx_undecodable");
        trace t ~label:"rx-undecodable" ~payload:pkt.Fabric.src
    | Some h when h.Wire.kind = Reliable.ack_kind && h.Wire.channel = Reliable.ack_channel ->
        handle_ack t h pkt
    | Some h when not (rel_admit t h pkt) -> ()
    | Some _ -> (
        (* classify the moment the frame is admitted: under reliable
           delivery its ack is already on the way, so the sender will never
           resend it, and it must reach its handler (and segment) even if
           a scrub drops board memory while the lookup's cost is paid *)
        let found =
          match t.board with
          | Some b -> Classifier.classify b.classifier pkt.Fabric.header
          | None -> None
        in
        let handler =
          match found with
          | Some f -> f
          | None ->
              Stats.Counter.incr t.s_unmatched;
              t.default_handler
        in
        match t.kind with
        | `Cni { aih; _ } ->
            (* PATHFINDER classifies the first cell in dedicated hardware;
               continuation cells follow the remembered VC binding (their cost
               is folded into the SAR term). *)
            Engine.after t.eng (Time.ns p.Params.pathfinder_cell_ns) (fun () ->
                if aih then
                  (* control transfers straight into the Application Interrupt
                     Handler on the NIC processor; the host is not involved *)
                  nic_busy_then t (dispatch_time t) (fun () ->
                      start_handler t (fun () -> handler (board_ctx t) pkt))
                else
                  (* ADC delivery to host code: the receive engine decides
                     how the host learns of the frame *)
                  Rx.deliver t.rx handler pkt)
        | `Osiris ->
            (* the base board: ADC queues exist, but demultiplexing is software
               on the board processor and the host is interrupted for every
               packet (section 2.1's two differences from the CNI) *)
            nic_busy_then t (Params.nic_cycles p osiris_classify_nic_cycles) (fun () ->
                interrupt_host t ~cost:p.Params.interrupt_latency
                  ~reply_host_cycles:p.Params.adc_enqueue_cycles handler pkt)
        | `Standard ->
            (* the standard board interrupts the host for every packet; the
               kernel demultiplexes in software and runs the handler on the
               host CPU *)
            let kernel = Params.cpu_cycles p p.Params.kernel_recv_cycles in
            interrupt_host t ~cost:Time.(p.Params.interrupt_latency + kernel)
              ~reply_host_cycles:p.Params.kernel_send_cycles handler pkt)

let receive t (pkt : 'a Fabric.packet) =
  let p = t.p in
  if not t.alive then
    (* the fabric drops frames for down nodes itself; this guards deliveries
       already under way when the crash landed *)
    Stats.Counter.incr (lcounter t "crash_rx_drops")
  else begin
    (match t.restarted_at with
    | Some r ->
        (* first frame the restarted board sees: the peer-visible recovery
           latency of this crash/restart cycle *)
        t.recovery_latencies <- Time.(Engine.now t.eng - r) :: t.recovery_latencies;
        t.restarted_at <- None
    | None -> ());
    Stats.Counter.incr t.s_rx_packets;
    trace t ~label:"rx" ~payload:pkt.Fabric.src;
    let cells = Fabric.packet_cells p pkt in
    (* SAR: reassembly work per cell on the NIC processor *)
    nic_busy_then t (Params.nic_cycles p (cells * p.Params.sar_cell_nic_cycles)) (fun () ->
        reassembled t pkt)
  end

let sender t cfg ~counter ~transmit ~retransmit =
  let s =
    Reliable.Sender.create cfg t.eng ~node:t.node ~counter
      ~peer_down:(fun dst -> Fabric.node_down t.fabric ~node:dst)
      ~transmit ~retransmit
  in
  t.senders <- t.senders @ [ Sender s ];
  s

let create ?registry ?reliability ~kind eng bus fabric ~node ~host =
  let p = Bus.params bus in
  let policy, batch =
    match kind with
    | `Cni { rx_policy; rx_batch; _ } -> (rx_policy, rx_batch)
    | `Osiris | `Standard -> (Rx_interrupt, 1)
  in
  let mc =
    match kind with
    | `Cni { mc_bytes; mc_mode; _ } when mc_bytes > 0 ->
        Some
          (Message_cache.create ?registry ~node ~page_bytes:p.Params.page_bytes
             ~capacity_bytes:mc_bytes ~mode:mc_mode ())
    | `Cni _ | `Osiris | `Standard -> None
  in
  let counter name =
    match registry with
    | Some reg -> Stats.Registry.counter reg ~node ~subsystem:"nic" name
    | None -> Stats.Counter.create name
  in
  let host_proc = Sync.Semaphore.create 1 and s_interrupts = counter "interrupts" in
  (* the receive engine runs each frame it delivers in this board's host
     context, so the board and its engine are built together *)
  let rec nic =
    lazy {
      eng;
      bus;
      fabric;
      p;
      node;
      kind;
      mc;
      host;
      registry;
      rel = None;
      senders = [];
      nic_proc = Sync.Semaphore.create 1;
      tx_ring = Ring.create ?registry ~node ~slots:1 ();
      host_proc;
      rx =
        Rx.create eng p ~node ~host ~host_proc ~interrupts:s_interrupts ~counter ~policy ~batch
          ~run:(fun handler pkt ->
            run_on_host (Lazy.force nic) ~base:Time.zero
              ~reply_host_cycles:p.Params.adc_enqueue_cycles handler pkt);
      board = Some (blank ());
      installs = Imap.empty;
      next_install = 0;
      default_handler = (fun _ _ -> ());
      alive = true;
      restarted_at = None;
      recovery_latencies = [];
      lazy_counters = Hashtbl.create 8;
      s_unmatched = counter "unmatched";
      s_tx_packets = counter "tx_packets";
      s_tx_data_packets = counter "tx_data_packets";
      s_tx_dma_bytes = counter "tx_dma_bytes";
      s_rx_packets = counter "rx_packets";
      s_rx_dma_bytes = counter "rx_dma_bytes";
      s_interrupts;
    }
  in
  let t = Lazy.force nic in
  Option.iter
    (fun cfg ->
      let r_tx =
        sender t cfg ~counter ~transmit:(transmit_frame t) ~retransmit:(retransmit_frame t)
      in
      t.rel <-
        Some
          { r_tx; r_rx = Reliable.Receiver.create (); r_acks_tx = counter "acks_tx";
            r_acks_rx = counter "acks_rx"; r_rx_duplicates = counter "rx_duplicates" })
    reliability;
  (* the snoopy interface: every bus write visits the buffer map *)
  Option.iter
    (fun mc ->
      Bus.register_snooper bus (fun ~dir ~addr ~bytes ->
          match dir with
          | Bus.Cpu_writeback | Bus.Dma_to_memory -> Message_cache.snoop mc ~addr ~bytes
          | Bus.Dma_from_memory -> ()))
    mc;
  Fabric.set_receiver fabric ~node (fun pkt -> receive t pkt);
  t

type handle = int

let load b id i =
  let segment = i.segment () in
  Hashtbl.replace b.loaded id (Classifier.add b.classifier i.pattern (i.handler segment), segment)

let code_bytes_in_use t = Imap.fold (fun _ i n -> n + i.code_bytes) t.installs 0

(* into the table, and onto the board unless a scrub left none *)
let install t ~pattern ~code_bytes ?(segment = fun () -> [||]) ?firmware handler =
  if code_bytes <= 0 then invalid_arg "Nic.install_handler: code_bytes must be positive";
  let mc_bytes =
    match t.kind with `Cni { mc_bytes; _ } -> mc_bytes | `Osiris | `Standard -> 0
  in
  let free = t.p.Params.nic_memory_bytes - mc_bytes - code_bytes_in_use t in
  if code_bytes > free then
    failwith
      (Printf.sprintf "Nic.install_handler: %d bytes of object code exceed free board memory (%d)"
         code_bytes free);
  let id = t.next_install and i = { pattern; code_bytes; segment; handler; firmware } in
  t.next_install <- id + 1;
  t.installs <- Imap.add id i t.installs;
  Option.iter (fun b -> load b id i) t.board;
  id

let install_handler t ~pattern ?(code_bytes = 512) f = install t ~pattern ~code_bytes (fun _ -> f)

(* removing a handler frees its board segment for later installations *)
let uninstall_handler t id =
  t.installs <- Imap.remove id t.installs;
  Option.iter
    (fun b ->
      Option.iter (fun (h, _) -> Classifier.remove b.classifier h) (Hashtbl.find_opt b.loaded id);
      Hashtbl.remove b.loaded id)
    t.board

let set_default_handler t f = t.default_handler <- f
let handler_code_bytes t = if Option.is_some t.board then code_bytes_in_use t else 0

(* ------------------------------------------------------------------ *)
(* Crash / restart                                                     *)
(* ------------------------------------------------------------------ *)

let recovery_latencies t = List.rev t.recovery_latencies

let crash t ~scrub =
  if t.alive then begin
    t.alive <- false;
    Stats.Counter.incr (lcounter t "crashes");
    (* crash and restart records carry the board's restarts so far *)
    trace t ~label:(if scrub then "crash-scrub" else "crash") ~payload:(lvalue t "restarts");
    List.iter (fun (Sender s) -> Reliable.Sender.park s) t.senders;
    t.restarted_at <- None;
    if scrub then begin
      t.board <- None;
      Option.iter Message_cache.clear t.mc
    end
  end

(* A board rebuilt from the install table, in install order; firmware goes
   back through the verifier before the board will run it again. *)
let rebuild t =
  let b = blank () in
  Imap.iter
    (fun id i ->
      match i.firmware with
      | Some (program, cell_budget)
        when Result.is_error (Cni_aih.Aih_verify.verify ~cell_budget program) ->
          Stats.Counter.incr (lcounter t "restart_reverify_rejects");
          t.installs <- Imap.remove id t.installs
      | firmware ->
          if Option.is_some firmware then Stats.Counter.incr (lcounter t "restart_reverified");
          load b id i)
    t.installs;
  b

let restart t =
  if not t.alive then begin
    t.alive <- true;
    Stats.Counter.incr (lcounter t "restarts");
    trace t ~label:"restart" ~payload:(lvalue t "restarts");
    (* end-to-end recovery of in-flight sends: every parked frame goes out
       again as it was *)
    List.iter (fun (Sender s) -> Reliable.Sender.resume s) t.senders;
    t.restarted_at <- Some (Engine.now t.eng);
    if Option.is_none t.board then t.board <- Some (rebuild t)
  end

(* ------------------------------------------------------------------ *)
(* Verified AIH firmware installation                                  *)
(* ------------------------------------------------------------------ *)

type 'a verified_handler = {
  vh_handle : handle;
  vh_cert : Cni_aih.Aih_verify.cert;
  vh_budget : int;
  vh_activate : ?view:int array -> 'a ctx -> int array -> unit;
}

(* The canonical first-cell view a Header handler sees: the decoded Wire
   header words plus the frame's body size. *)
let header_view_words = 6

let install_handler_verified ?link_bps ?(init = ignore) t ~pattern ~program ~entry ~on_send
    ~on_wake =
  (* line-rate admission: the budget one streaming activation gets before
     the next cell arrives, at the configured (or overridden) link rate *)
  let cell_budget = Params.line_rate_budget ?link_bps t.p in
  match Cni_aih.Aih_verify.verify ~cell_budget program with
  | Error rjs ->
      Stats.Counter.incr (lcounter t "aih_verify_rejects");
      Error rjs
  | Ok cert ->
      (* the persistent board segment: one per load, shared by every
         activation, like the closure handlers' mutable state records *)
      let segment () =
        let mem = Array.make program.Cni_aih.Aih_ir.seg_words 0 in
        init mem;
        mem
      in
      let run mem ?view ctx inputs =
        let services =
          {
            Cni_aih.Aih_exec.sv_send =
              (fun ~dst ~kind ~obj ~value -> on_send ctx ~dst ~kind ~obj ~value);
            sv_wake = on_wake;
            sv_charge = ctx.charge;
          }
        in
        ignore (Cni_aih.Aih_exec.run program ?view ~mem ~inputs services)
      in
      let handler mem ctx pkt =
        match program.Cni_aih.Aih_ir.hkind with
        | Cni_aih.Aih_ir.Episode -> run mem ctx (entry pkt)
        | Cni_aih.Aih_ir.Header _ ->
            (* one activation per packet, with the first cell latched *)
            let view =
              match Wire.decode_opt pkt.Fabric.header with
              | Some h ->
                  [|
                    h.Wire.kind; h.Wire.src; h.Wire.channel; h.Wire.obj; h.Wire.aux;
                    pkt.Fabric.body_bytes;
                  |]
              | None -> [||] (* unreachable: undecodable frames never classify *)
            in
            run mem ~view ctx (entry pkt)
        | Cni_aih.Aih_ir.Payload { chunk_words; max_chunks } ->
            (* one activation per payload chunk as reassembly streams it in;
               each activation's cycles hit the board through [ctx.charge],
               so a long frame charges per cell, not per packet *)
            let chunk_bytes = 8 * chunk_words in
            let body = max 0 pkt.Fabric.body_bytes in
            let nchunks = min max_chunks (max 1 ((body + chunk_bytes - 1) / chunk_bytes)) in
            let base = entry pkt in
            let view = Array.make chunk_words 0 in
            for i = 0 to nchunks - 1 do
              let valid = max 1 (min chunk_words ((body - (i * chunk_bytes) + 7) / 8)) in
              let inputs =
                if Array.length base >= 2 then Array.copy base
                else Array.append base (Array.make (2 - Array.length base) 0)
              in
              inputs.(0) <- i;
              inputs.(1) <- valid;
              run mem ~view ctx inputs
            done
      in
      let id =
        install t ~pattern ~code_bytes:cert.Cni_aih.Aih_verify.code_bytes ~segment
          ~firmware:(program, cell_budget) handler
      in
      let activate ?view ctx inputs =
        match Option.bind t.board (fun b -> Hashtbl.find_opt b.loaded id) with
        | Some (_, mem) -> run mem ?view ctx inputs
        | None -> run (segment ()) ?view ctx inputs (* scrubbed: nothing keeps it *)
      in
      Ok { vh_handle = id; vh_cert = cert; vh_budget = cell_budget; vh_activate = activate }

let aih_verify_rejects t = lvalue t "aih_verify_rejects"

let stats t =
  let r = Rx.stats t.rx in
  {
    tx_packets = Stats.Counter.value t.s_tx_packets;
    tx_data_packets = Stats.Counter.value t.s_tx_data_packets;
    tx_dma_bytes = Stats.Counter.value t.s_tx_dma_bytes;
    rx_packets = Stats.Counter.value t.s_rx_packets;
    rx_dma_bytes = Stats.Counter.value t.s_rx_dma_bytes;
    interrupts = Stats.Counter.value t.s_interrupts;
    polls = r.Rx.polls; wasted_polls = r.Rx.wasted_polls; coalesced = r.Rx.coalesced;
    mode_switches = r.Rx.mode_switches; mode_interrupt = r.Rx.mode_interrupt;
    mode_hybrid = r.Rx.mode_hybrid; mode_poll = r.Rx.mode_poll;
    unmatched = Stats.Counter.value t.s_unmatched;
  }

let rx_mode t = Rx.mode t.rx
