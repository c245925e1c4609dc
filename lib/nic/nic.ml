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
   segment; its code bytes are the install table's. The classifier names a
   loaded handler by its index in the host's [handlers]. *)
type board = {
  classifier : int Classifier.t;
  loaded : (int, Classifier.handle * int array) Hashtbl.t;
}

let blank () = { classifier = Classifier.create (); loaded = Hashtbl.create 8 }

(* Residency. Board memory is [board], which a scrub drops and a restart
   rebuilds from [installs], and [mc]'s bindings, which a scrub clears (the
   bus snooper holds the cache). The host keeps the rest through every
   crash: [installs], the sender tables in [rel] and [senders], the
   receive windows in [rel], [rx]'s coalescing queue, the counters and the
   recovery latencies; and the wiring.

   A frame on the board is its record in the fabric (see
   [Fabric.new_frame]), moved by the board's one engine stage, [st]: a
   stage event's slot is [32 * frame + step]. [handlers] keeps every
   handler the board has loaded, and every default handler, at the index
   a frame's record names, so a frame classified before a scrub still
   reaches the handler and segment it was classified to. *)
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
  rx : Rx.t;  (* host delivery (CNI, AIH off), over [pool]'s slots *)
  mutable board : board option;  (* None from a scrub to the restart *)
  mutable installs : 'a install Imap.t;  (* by id, so in install order *)
  mutable next_install : int;
  mutable handlers : 'a handler_fn array;  (* append-only, [nhandlers] long *)
  mutable nhandlers : int;
  mutable default_handler : int;  (* in [handlers] *)
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
  mutable st : Engine.stage;  (* set once, right after creation *)
  mutable bctx : 'a ctx option;  (* board protocol context: one for every activation *)
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

(* ------------------------------------------------------------------ *)
(* Frame steps and processor bursts                                   *)
(* ------------------------------------------------------------------ *)

(* A frame's record words on the board: word 0 is its data buffer on
   transmit ([2 * bytes + cacheable], or [min_int] for none) and its
   handler on receive (an index in [handlers]); word 1 the buffer's
   address; word 2 the step that follows the processor burst the frame is
   in, and the burst's length: [32 * length + step]. *)
let[@inline] word t s i = Fabric.frame_word t.fabric s i
let[@inline] set_word t s i v = Fabric.set_frame_word t.fabric s i v
let[@inline] packet t s = Fabric.frame_packet t.fabric s
let[@inline] burst t s = word t s 2 asr 5

(* The board's steps: its one engine stage runs step [step_of (v land 31)]
   on frame [v lsr 5]. *)
type step =
  | Nic_acquired  (* the board processor came free *)
  | Nic_held  (* a burst on it ended *)
  | Host_acquired  (* the same on the host's interrupt level *)
  | Host_held
  | Tx_posted  (* a descriptor reached the board *)
  | Retx_posted  (* a retransmission did *)
  | Ack_posted  (* an ack did *)
  | Tx_spaced  (* a transmit queue slot came free *)
  | Tx_dispatched
  | Tx_fetched  (* the data's DMA ended *)
  | Tx_segmented
  | Tx_claimed  (* the descriptor heads the transmit queue *)
  | Kernel_tx  (* the standard board's kernel send path ended *)
  | Rx_reassembled
  | Rx_classified  (* PATHFINDER's lookup ended *)
  | Aih_dispatched
  | Osiris_demuxed
  | Host_interrupted  (* a host handler's interrupt ended *)
  | Discard_classified
  | Kernel_discarded
  | Discarded

(* constant constructors are the ints 0, 1, ... in declaration order *)
let index (step : step) : int = Obj.magic step
let step_of (i : int) : step = Obj.magic i

let[@inline] ev s step = (32 * s) + index step
let[@inline] at_step t time s step = Engine.at_stage t.eng time t.st (ev s step)
let[@inline] after_step t d s step = Engine.after_stage t.eng d t.st (ev s step)

(* A fiber's burst on a processor (a protocol handler's [ctx.charge]), on
   the same FIFO. A handler that blocks (e.g. a server-side fault)
   releases the processor between bursts, so reply processing can still
   run. *)
let occupy eng proc d = Engine.await (fun _ k -> Sync.Semaphore.hold_then eng proc d k)

(* Kernel work performed on the host without an application fiber to bill,
   after its burst on the interrupt level: report it as service and steal
   the CPU from a computing application (mirrors run_on_host's
   accounting). *)
let charge_kernel t s =
  let d = burst t s in
  t.host.overhead d;
  if not (t.host.host_waiting ()) then t.host.steal d

(* A protocol handler is a fiber, started inside the event that reaches it
   and named after the fabric delivery it serves. *)
let start_handler t f = Engine.start t.eng ~name:"fabric-send" f

(* a control transfer into board code: a descriptor pickup or a handler *)
let dispatch_time t = Params.nic_cycles t.p t.p.Params.handler_dispatch_nic_cycles

(* A descriptor reaches the board in an event of its own, at this instant,
   as a new frame record at step [step]. *)
let post t step ~dst ~header ~body_bytes ~data ~payload =
  let data_bytes = match data with No_data -> 0 | Page { bytes; _ } -> bytes in
  (* bulk data rides in the same frame: it must be counted in the wire size
     (cells, serialisation) exactly like inline body bytes *)
  let s =
    Fabric.new_frame t.fabric
      { Fabric.src = t.node; dst; vci = t.node; header; body_bytes = body_bytes + data_bytes;
        payload; crc_ok = true }
  in
  (match data with
  | No_data -> set_word t s 0 min_int
  | Page { vaddr; bytes; cacheable } ->
      set_word t s 0 ((2 * bytes) + Bool.to_int cacheable);
      set_word t s 1 vaddr);
  at_step t (Engine.now t.eng) s step

(* ------------------------------------------------------------------ *)
(* Transmit                                                           *)
(* ------------------------------------------------------------------ *)

(* The closure layer's transmissions of a sequenced frame. On the CNI/OSIRIS
   boards the retransmission timer and the resend run in board firmware; the
   standard interface keeps them in the kernel, so every firing costs the
   host an interrupt plus the kernel send path. *)
let transmit_frame t (e : 'a tx Reliable.Sender.frame) =
  let { body_bytes; data; payload } = e.body in
  post t Tx_posted ~dst:e.dst ~header:e.header ~body_bytes ~data ~payload

let retransmit_frame t (e : 'a tx Reliable.Sender.frame) =
  trace t ~label:"retransmit" ~payload:e.seq;
  let { body_bytes; data; payload } = e.body in
  post t Retx_posted ~dst:e.dst ~header:e.header ~body_bytes ~data ~payload

(* Queue a frame for transmission. With reliability enabled, every Wire
   frame goes into the sender table, which stamps it with a per-destination
   sequence number and tracks it until acknowledged — parking it if the
   board is down. Other frames (reliability off, or non-Wire) go straight to
   the board; posted into a dead board's ADC window, such a frame vanishes
   with the board, as a fabric loss would. *)
let submit t ~dst ~header ~body_bytes ~data ~payload =
  let plain () =
    if t.alive then post t Tx_posted ~dst ~header ~body_bytes ~data ~payload
    else Stats.Counter.incr (lcounter t "crash_tx_drops")
  in
  match t.rel with
  | None -> plain ()
  | Some r ->
      if Wire.valid header then
        Reliable.Sender.post r.r_tx ~dst ~header { body_bytes; data; payload }
      else plain ()

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

(* Acknowledge a sequenced frame. The CNI/OSIRIS boards generate the ack in
   firmware (its transmit cost is the usual board dispatch + SAR); the
   standard interface builds it in the kernel. *)
let send_ack t r ~dst ~seq =
  Stats.Counter.incr r.r_acks_tx;
  let header =
    Wire.encode
      { Wire.kind = Reliable.ack_kind; cacheable = false; has_data = false;
        src = t.node; channel = Reliable.ack_channel; obj = seq; aux = 0 }
  in
  (* acks carry no payload and are intercepted before classification at the
     far end, so the placeholder is never read (cf. Mp's barrier
     placeholder) *)
  post t Ack_posted ~dst ~header ~body_bytes:0 ~data:No_data ~payload:(Obj.magic 0)

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

(* Protocol code on the NIC processor, entered after a dispatch, gets a
   context that charges at the NIC clock and replies free of host cost. *)
let board_ctx t =
  match t.bctx with
  | Some ctx -> ctx
  | None ->
      let ctx =
        make_ctx t ~reply_host_cycles:0 ~on_charge:(fun n ->
            occupy t.eng t.nic_proc (Params.nic_cycles t.p n))
      in
      t.bctx <- Some ctx;
      ctx

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

(* ------------------------------------------------------------------ *)
(* The board's steps                                                  *)
(* ------------------------------------------------------------------ *)

(* [run t step s] runs [step] on frame [s], inside the current event. *)
let rec run t step s =
  let p = t.p in
  match step with
  | Nic_acquired -> after_step t (burst t s) s Nic_held
  | Nic_held ->
      Sync.Semaphore.release t.nic_proc;
      run t (step_of (word t s 2 land 31)) s
  | Host_acquired -> after_step t (burst t s) s Host_held
  | Host_held ->
      Sync.Semaphore.release t.host_proc;
      run t (step_of (word t s 2 land 31)) s
  | Tx_posted ->
      (* NIC-side half of a transmission. The board picks the descriptor
         off the transmit queue, resolves the data buffer (Message Cache on
         CNI), segments the frame and hands the cells to the wire. *)
      if not t.alive then begin
        (* a descriptor reaching a dead board is lost with it (a sequenced
           original stays pending and retransmits after the restart) *)
        Stats.Counter.incr (lcounter t "crash_tx_drops");
        Fabric.free_frame t.fabric s
      end
      else if
        (* the board works its transmit queue one descriptor at a time: a
           pipelined resend of a buffer must observe the Message Cache
           binding its predecessor created *)
        Ring.reserve t.eng t.tx_ring t.st (ev s Tx_spaced)
      then run t Tx_spaced s
  | Retx_posted -> (
      match t.kind with
      | `Cni _ | `Osiris -> run t Tx_posted s
      | `Standard ->
          Stats.Counter.incr t.s_interrupts;
          host_hold t s
            Time.(p.Params.interrupt_latency + Params.cpu_cycles p p.Params.kernel_send_cycles)
            Kernel_tx)
  | Ack_posted -> (
      match t.kind with
      | `Cni _ | `Osiris -> run t Tx_posted s
      | `Standard -> host_hold t s (Params.cpu_cycles p p.Params.kernel_send_cycles) Kernel_tx)
  | Tx_spaced ->
      Ring.put t.tx_ring ();
      if Trace.enabled_cat Trace.Nic then
        Trace.span_begin ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node:t.node Trace.Nic ~label:"tx"
          ~payload:(packet t s).Fabric.dst;
      nic_hold t s (dispatch_time t) Tx_dispatched
  | Tx_dispatched ->
      (* resolve the descriptor's data buffer: on a Message Cache hit the
         board already holds a consistent copy, and no host-memory DMA is
         needed *)
      let d = word t s 0 in
      if d = min_int then segment t s
      else begin
        Stats.Counter.incr t.s_tx_data_packets;
        let vaddr = word t s 1 in
        match t.mc with
        | Some mc when Message_cache.lookup mc ~vpage:(vpage_of t vaddr) -> segment t s
        | Some _ | None ->
            Bus.dma_stage t.bus ~dir:Bus.Dma_from_memory ~addr:vaddr ~bytes:(d asr 1) t.st
              (ev s Tx_fetched)
      end
  | Tx_fetched ->
      let d = word t s 0 in
      Stats.Counter.add t.s_tx_dma_bytes (d asr 1);
      (match t.mc with
      | Some mc when d land 1 = 1 -> Message_cache.bind mc ~vpage:(vpage_of t (word t s 1))
      | Some _ | None -> ());
      segment t s
  | Tx_segmented ->
      Stats.Counter.incr t.s_tx_packets;
      if Trace.enabled_cat Trace.Nic then
        Trace.span_end ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node:t.node Trace.Nic ~label:"tx"
          ~payload:(packet t s).Fabric.dst;
      if Ring.claim t.eng t.tx_ring t.st (ev s Tx_claimed) then run t Tx_claimed s
  | Tx_claimed ->
      Ring.take t.tx_ring;
      Fabric.send_frame t.fabric s
  | Kernel_tx ->
      charge_kernel t s;
      run t Tx_posted s
  | Rx_reassembled -> reassembled t s
  | Rx_classified ->
      if aih_enabled t then
        (* control transfers straight into the Application Interrupt
           Handler on the NIC processor; the host is not involved *)
        nic_hold t s (dispatch_time t) Aih_dispatched
      else
        (* ADC delivery to host code: the receive engine decides how the
           host learns of the frame *)
        Rx.deliver t.rx s
  | Aih_dispatched ->
      let handler = t.handlers.(word t s 0) and pkt = packet t s in
      Fabric.free_frame t.fabric s;
      start_handler t (fun () -> handler (board_ctx t) pkt)
  | Osiris_demuxed -> interrupt_host t s ~cost:p.Params.interrupt_latency
  | Host_interrupted ->
      let handler = t.handlers.(word t s 0) and pkt = packet t s and base = burst t s in
      Fabric.free_frame t.fabric s;
      let reply_host_cycles =
        match t.kind with
        | `Cni _ | `Osiris -> p.Params.adc_enqueue_cycles
        | `Standard -> p.Params.kernel_send_cycles
      in
      start_handler t (fun () -> run_on_host t ~base ~reply_host_cycles handler pkt)
  | Discard_classified -> nic_hold t s (dispatch_time t) Discarded
  | Kernel_discarded ->
      charge_kernel t s;
      Fabric.free_frame t.fabric s
  | Discarded -> Fabric.free_frame t.fabric s

and nic_hold t s d next = hold t t.nic_proc ~acquired:Nic_acquired ~held:Nic_held s d next
and host_hold t s d next = hold t t.host_proc ~acquired:Host_acquired ~held:Host_held s d next

(* Occupy a processor — the board's, or the host's interrupt level — for a
   bounded burst of work [d] on frame [s], then run its step [next] in the
   event that ends the burst; a zero [d] runs it at once. Concurrent
   transmissions, receptions and handler activations on one board
   serialise here, a frame waiting in the processor's FIFO as a stage
   waiter. *)
and hold t proc ~acquired ~held s d next =
  set_word t s 2 ((32 * d) + index next);
  if d = Time.zero then run t next s
  else if Sync.Semaphore.acquire_stage t.eng proc t.st (ev s acquired) then
    after_step t d s held

and segment t s =
  let cells = Fabric.packet_cells t.p (packet t s) in
  nic_hold t s (Params.nic_cycles t.p (cells * t.p.Params.sar_cell_nic_cycles)) Tx_segmented

(* One per-packet interrupt delivery (OSIRIS, standard): count the
   interrupt, occupy the interrupt level for [cost], then run the handler on
   the host with [cost] as its base, which run_on_host charges once as
   overhead and steals once from a computing application. *)
and interrupt_host t s ~cost =
  Stats.Counter.incr t.s_interrupts;
  host_hold t s cost Host_interrupted

(* The receive steps after reassembly, up to the frame's handler. *)
and reassembled t s =
  let p = t.p and pkt = packet t s in
  if not t.alive then begin
    (* the crash landed during reassembly: the frame dies with the board *)
    Stats.Counter.incr (lcounter t "crash_rx_drops");
    Fabric.free_frame t.fabric s
  end
  else if not pkt.Fabric.crc_ok then begin
    (* the AAL5 CRC computed during reassembly does not match the trailer:
       the board discards the frame (a sequenced original will be
       retransmitted by its sender's timer) *)
    Stats.Counter.incr (lcounter t "rx_crc_errors");
    trace t ~label:"rx-crc-drop" ~payload:pkt.Fabric.src;
    Fabric.free_frame t.fabric s
  end
  else
    let header = pkt.Fabric.header in
    if not (Wire.valid header) then begin
      (* not a frame any pattern could classify: count and drop *)
      Stats.Counter.incr (lcounter t "rx_undecodable");
      trace t ~label:"rx-undecodable" ~payload:pkt.Fabric.src;
      Fabric.free_frame t.fabric s
    end
    else if
      Wire.read_kind header = Reliable.ack_kind && Wire.read_channel header = Reliable.ack_channel
    then handle_ack t s
    else if rel_admit t s then begin
      (* classify the moment the frame is admitted: under reliable
         delivery its ack is already on the way, so the sender will never
         resend it, and it must reach its handler (and segment) even if
         a scrub drops board memory while the lookup's cost is paid *)
      let found =
        match t.board with
        | Some b -> Classifier.classify b.classifier pkt.Fabric.header
        | None -> None
      in
      set_word t s 0
        (match found with
        | Some ix -> ix
        | None ->
            Stats.Counter.incr t.s_unmatched;
            t.default_handler);
      match t.kind with
      | `Cni _ ->
          (* PATHFINDER classifies the first cell in dedicated hardware;
             continuation cells follow the remembered VC binding (their cost
             is folded into the SAR term). *)
          after_step t (Time.ns p.Params.pathfinder_cell_ns) s Rx_classified
      | `Osiris ->
          (* the base board: ADC queues exist, but demultiplexing is software
             on the board processor and the host is interrupted for every
             packet (section 2.1's two differences from the CNI) *)
          nic_hold t s (Params.nic_cycles p osiris_classify_nic_cycles) Osiris_demuxed
      | `Standard ->
          (* the standard board interrupts the host for every packet; the
             kernel demultiplexes in software and runs the handler on the
             host CPU *)
          let kernel = Params.cpu_cycles p p.Params.kernel_recv_cycles in
          interrupt_host t s ~cost:Time.(p.Params.interrupt_latency + kernel)
    end

(* The classification-stage cost of looking at one frame and discarding it
   (a duplicate the window caught, or an ack): hardware lookup on the CNI,
   software demux on OSIRIS, a full interrupt + kernel demux on the
   standard board. *)
and discard t s =
  let p = t.p in
  match t.kind with
  | `Cni _ -> after_step t (Time.ns p.Params.pathfinder_cell_ns) s Discard_classified
  | `Osiris ->
      nic_hold t s (Params.nic_cycles p osiris_classify_nic_cycles) Discarded
  | `Standard ->
      Stats.Counter.incr t.s_interrupts;
      host_hold t s
        Time.(p.Params.interrupt_latency + Params.cpu_cycles p p.Params.kernel_recv_cycles)
        Kernel_discarded

(* An ack arrived: settle the matching pending frame (if it is still
   pending: the ack may name an already-settled (re)transmission). *)
and handle_ack t s =
  match t.rel with
  | None -> Fabric.free_frame t.fabric s (* reliability off: stray ack, drop silently *)
  | Some r ->
      Stats.Counter.incr r.r_acks_rx;
      let pkt = packet t s in
      let seq = Wire.read_obj pkt.Fabric.header in
      ignore (Reliable.Sender.settle r.r_tx ~dst:pkt.Fabric.src ~seq);
      discard t s

(* Duplicate suppression + acknowledgment for one decoded frame; [true] when
   the frame is fresh or unsequenced and must be dispatched. *)
and rel_admit t s =
  match t.rel with
  | None -> true
  | Some r -> (
      let pkt = packet t s in
      let src = pkt.Fabric.src and aux = Wire.read_aux pkt.Fabric.header in
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
          discard t s;
          false)

(* A frame's last bit reached the board: SAR, reassembly work per cell on
   the NIC processor. *)
and receive t s =
  let p = t.p and pkt = packet t s in
  if not t.alive then begin
    (* the fabric drops frames for down nodes itself; this guards deliveries
       already under way when the crash landed *)
    Stats.Counter.incr (lcounter t "crash_rx_drops");
    Fabric.free_frame t.fabric s
  end
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
    nic_hold t s (Params.nic_cycles p (cells * p.Params.sar_cell_nic_cycles)) Rx_reassembled
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
          ~take:(fun s ->
            let t = Lazy.force nic in
            let handler = t.handlers.(Fabric.frame_word fabric s 0)
            and pkt = Fabric.frame_packet fabric s in
            Fabric.free_frame fabric s;
            fun () ->
              run_on_host t ~base:Time.zero ~reply_host_cycles:p.Params.adc_enqueue_cycles handler
                pkt);
      board = Some (blank ());
      installs = Imap.empty;
      next_install = 0;
      handlers = [| (fun _ _ -> ()) |];
      nhandlers = 1;
      default_handler = 0;
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
      st = 0;
      bctx = None;
    }
  in
  let t = Lazy.force nic in
  t.st <- Engine.register eng (fun v -> run t (step_of (v land 31)) (v lsr 5));
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
  Fabric.set_frame_receiver fabric ~node (receive t);
  t

type handle = int

(* a handler's index in [handlers], which it keeps for good *)
let keep t f =
  if t.nhandlers = Array.length t.handlers then
    t.handlers <- Cni_engine.Pool.extend t.handlers (2 * t.nhandlers) f;
  t.handlers.(t.nhandlers) <- f;
  t.nhandlers <- t.nhandlers + 1;
  t.nhandlers - 1

let load t b id i =
  let segment = i.segment () in
  let ix = keep t (i.handler segment) in
  Hashtbl.replace b.loaded id (Classifier.add b.classifier i.pattern ix, segment)

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
  Option.iter (fun b -> load t b id i) t.board;
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

let set_default_handler t f = t.default_handler <- keep t f
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
          load t b id i)
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
