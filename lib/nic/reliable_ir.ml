(* Reliable delivery compiled onto the board, the way {!Collectives_ir}
   compiles the tree collectives: an rx [Header] handler on the data
   channel, and a tx [Episode] stamp the host drives through
   {!Nic.local_dispatch} with r0 = destination and r1 = the sequence
   number (the {!Collectives_ir} ABI: the host numbers, the firmware
   stamps). The host keeps the protocol's state — payloads, a
   {!Reliable.Sender} table (the closure layer's numbering, timers and
   crash rule), completion ivars, and per-peer {!Reliable.Window}s fed by
   the delivery wakes, which the rx segment caches. Counters land in the
   registry under subsystem "reliable-ir" with the names of
   {!Nic.rel_stats}, so the two implementations diff directly. *)

module Engine = Cni_engine.Engine
module Stats = Cni_engine.Stats
module Sync = Cni_engine.Sync
module Fabric = Cni_atm.Fabric
module Ir = Cni_aih.Aih_ir

let default_channel = 9
let k_data = 1
let k_ack = 2

(* receive window: frames this far beyond the floor are tracked in the
   bitmap word; anything further is dropped unacked. Small enough that the
   rx program's floor-advance loop fits the line-rate budget. *)
let window = 8

(* host-wakeup event codes, packed as [(ev lsl 16) lor peer] in the wake
   sequence field with the sequence number as the value *)
let ev_deliver = 1
let ev_ack = 2
let ev_dup = 3

(* ------------------------------------------------------------------ *)
(* Generated firmware                                                  *)
(* ------------------------------------------------------------------ *)

(* Header-kind receive handler. Segment layout: slot [2*src] = floor,
   [2*src + 1] = bitmap of seen-but-not-contiguous frames (bit [d-1] set
   when [floor + d] has been seen, d in 1 .. window). *)
let rx_program ~size =
  let a = Ir.Asm.create () in
  let open Ir.Asm in
  let l_ack = fresh a and l_dup = fresh a and l_tail = fresh a in
  let l_adv = fresh a and l_head = fresh a and l_out = fresh a in
  const a 0 0;
  ldv a 1 ~base:0 0 (* kind *);
  ldv a 2 ~base:0 1 (* src *);
  ldv a 3 ~base:0 3 (* obj = sequence number *);
  (* untrusted header fields: prove the peer index before it touches the
     segment (the verifier refines r2 through these branches) *)
  bri a Lt 2 0 l_out;
  bri a Ge 2 size l_out;
  bri a Eq 1 k_ack l_ack;
  bri a Ne 1 k_data l_out;
  (* window slot for this peer *)
  bini a Mul 4 2 2;
  load a 5 ~base:4 0 (* floor *);
  load a 6 ~base:4 1 (* bitmap *);
  bin a Sub 7 3 5 (* d = seq - floor *);
  bri a Le 7 0 l_dup;
  bri a Gt 7 window l_out (* beyond the window: drop unacked *);
  bini a Sub 8 7 1 (* bit index, proven in 0 .. window-1 *);
  bin a Shr 9 6 8;
  bini a And 9 9 1;
  bri a Eq 9 1 l_dup;
  (* fresh: record it, slide the floor over the contiguous prefix *)
  const a 10 1;
  bin a Shl 10 10 8;
  bin a Or 6 6 10;
  const a 11 0;
  place a l_head;
  loop a ~counter:11 ~limit:window ~exit:l_adv;
  bini a And 12 6 1;
  bri a Eq 12 0 l_adv;
  bini a Shr 6 6 1;
  bini a Add 5 5 1;
  jmp a l_head;
  place a l_adv;
  store a 5 ~base:4 0;
  store a 6 ~base:4 1;
  const a 13 ev_deliver;
  jmp a l_tail;
  place a l_dup;
  const a 13 ev_dup;
  place a l_tail;
  (* always ack — the duplicate means our previous ack was lost *)
  const a 14 k_ack;
  send a ~dst:2 ~kind:14 ~obj:3 ~value:3;
  bini a Shl 15 13 16;
  bin a Or 15 15 2;
  wake a ~seq:15 ~value:3;
  halt a;
  place a l_ack;
  const a 13 ev_ack;
  bini a Shl 15 13 16;
  bin a Or 15 15 2;
  wake a ~seq:15 ~value:3;
  halt a;
  place a l_out;
  halt a;
  assemble
    ~hkind:(Ir.Header { view_words = Nic.header_view_words })
    a ~name:"reliable-rx" ~seg_words:(2 * size) ~inputs:0

(* Episode-kind transmit stamp: r0 = destination, r1 = the sequence number
   the host's sender table allocated. The destination is proven in range
   before it reaches the wire. *)
let tx_program ~size =
  let a = Ir.Asm.create () in
  let open Ir.Asm in
  let l_out = fresh a in
  bri a Lt 0 0 l_out;
  bri a Ge 0 size l_out;
  const a 2 k_data;
  send a ~dst:0 ~kind:2 ~obj:1 ~value:1;
  place a l_out;
  halt a;
  assemble a ~name:"reliable-tx-stamp" ~seg_words:0 ~inputs:2

(* ------------------------------------------------------------------ *)
(* Host endpoint                                                       *)
(* ------------------------------------------------------------------ *)

(* What the endpoint keeps of a data frame besides its header: the body of
   its sender-table frame. *)
type 'a frame = { g_body_bytes : int; g_payload : 'a; g_done : unit Sync.Ivar.t }

type 'a t = {
  nic : 'a Nic.t;
  rank : int;
  size : int;
  deliver : src:int -> seq:int -> body_bytes:int -> payload:'a -> unit;
  rx_vh : 'a Nic.verified_handler;
  tx_vh : 'a Nic.verified_handler;
  tx : 'a frame Reliable.Sender.t;  (** un-acked data frames, keyed [(dst, seq)] *)
  windows : Reliable.Window.t array;  (** per peer: what the rx segment caches *)
  mutable cur_pkt : (int * 'a) option;
      (** body_bytes/payload of the frame the rx firmware is streaming *)
  s_acks_tx : Stats.Counter.t;
  s_acks_rx : Stats.Counter.t;
  s_rx_duplicates : Stats.Counter.t;
}

type stats = { retransmits : int; acks_tx : int; acks_rx : int; rx_duplicates : int }

let stats t =
  {
    retransmits = Reliable.Sender.retransmits t.tx;
    acks_tx = Stats.Counter.value t.s_acks_tx;
    acks_rx = Stats.Counter.value t.s_acks_rx;
    rx_duplicates = Stats.Counter.value t.s_rx_duplicates;
  }

let header t ~kind ~obj =
  Wire.encode
    { Wire.kind; cacheable = false; has_data = false; src = t.rank; channel = default_channel;
      obj; aux = 0 }

(* The re-send of a data frame, for the retransmit timer and a restart
   alike: back through {!Nic.send} from a fresh fiber. The frame keeps its
   sequence number. *)
let resend eng nic (e : 'a frame Reliable.Sender.frame) =
  Engine.spawn eng ~name:"relir-retx" (fun () ->
      Nic.send nic ~dst:e.dst ~header:e.header ~body_bytes:e.body.g_body_bytes
        ~data:Nic.No_data ~payload:e.body.g_payload)

let on_send t ctx ~dst ~kind ~obj ~value:_ =
  if kind = k_ack then begin
    Stats.Counter.incr t.s_acks_tx;
    ctx.Nic.reply ~dst ~header:(header t ~kind:k_ack ~obj) ~body_bytes:0
      ~data:Nic.No_data ~payload:(Obj.magic 0)
  end
  else
    (* data frame: {!send} put it in the sender table; one parked there
       (its board is down) waits for the restart instead *)
    match Reliable.Sender.find t.tx ~dst ~seq:obj with
    | Some e ->
        ctx.Nic.reply ~dst ~header:e.header ~body_bytes:e.body.g_body_bytes
          ~data:Nic.No_data ~payload:e.body.g_payload
    | None -> ()

let on_wake t ~seq ~value =
  let ev = seq lsr 16 and peer = seq land 0xFFFF in
  if ev = ev_deliver then (
    ignore (Reliable.Window.observe t.windows.(peer) value);
    match t.cur_pkt with
    | Some (body_bytes, payload) ->
        t.deliver ~src:peer ~seq:value ~body_bytes ~payload
    | None -> ())
  else if ev = ev_ack then begin
    Stats.Counter.incr t.s_acks_rx;
    match Reliable.Sender.settle t.tx ~dst:peer ~seq:value with
    | Some e -> Sync.Ivar.fill e.body.g_done ()
    | None -> () (* ack of an already-acked frame: a duplicate beat it *)
  end
  else if ev = ev_dup then Stats.Counter.incr t.s_rx_duplicates

(* Fill a fresh rx segment from the host's windows: slot [2*peer] gets the
   floor, [2*peer + 1] the bit [d-1] of every seen [floor + d]. *)
let load_windows windows mem =
  Array.iteri
    (fun peer w ->
      let floor = Reliable.Window.floor w in
      mem.(2 * peer) <- floor;
      for d = 1 to window do
        if Reliable.Window.seen w (floor + d) then
          mem.((2 * peer) + 1) <- mem.((2 * peer) + 1) lor (1 lsl (d - 1))
      done)
    windows

let counter nic name =
  match Nic.registry nic with
  | Some reg ->
      Stats.Registry.counter reg ~node:(Nic.node nic) ~subsystem:"reliable-ir" name
  | None -> Stats.Counter.create name

let install ~engine ~size ~deliver nic =
  let rank = Nic.node nic in
  if size < 1 then invalid_arg "Reliable_ir.install: need at least one node";
  if size > 0xFFFF then invalid_arg "Reliable_ir.install: peer index rides in 16 bits";
  let windows = Array.init size (fun _ -> Reliable.Window.create ()) in
  let rec t =
    lazy
      {
        nic;
        rank;
        size;
        deliver;
        rx_vh =
          install_program "rx" ~channel:default_channel ~program:(rx_program ~size)
            ~init:(load_windows windows)
            ~entry:(fun pkt ->
              (Lazy.force t).cur_pkt <- Some (pkt.Fabric.body_bytes, pkt.Fabric.payload);
              [||]);
        (* the stamp program is driven only through local_dispatch; its
           pattern sits on the next channel, which never appears on the wire *)
        tx_vh =
          install_program "tx" ~channel:(default_channel + 1) ~program:(tx_program ~size)
            ~entry:(fun _ -> [||]);
        tx =
          Nic.sender nic Reliable.default ~counter:(counter nic)
            ~transmit:(resend engine nic) ~retransmit:(resend engine nic);
        windows;
        cur_pkt = None;
        s_acks_tx = counter nic "acks_tx";
        s_acks_rx = counter nic "acks_rx";
        s_rx_duplicates = counter nic "rx_duplicates";
      }
  and install_program ?init what ~channel ~program ~entry =
    match
      Nic.install_handler_verified ?init nic ~pattern:(Wire.pattern_channel ~channel) ~program
        ~entry
        ~on_send:(fun ctx ~dst ~kind ~obj ~value ->
          on_send (Lazy.force t) ctx ~dst ~kind ~obj ~value)
        ~on_wake:(fun ~seq ~value -> on_wake (Lazy.force t) ~seq ~value)
    with
    | Ok vh -> vh
    | Error rjs ->
        failwith
          (Printf.sprintf "Reliable_ir.install: %s firmware rejected: %s" what
             (Cni_aih.Aih_verify.explain_all rjs))
  in
  Lazy.force t

let send t ~dst ~body_bytes ~payload =
  if dst < 0 || dst >= t.size then invalid_arg "Reliable_ir.send: bad destination";
  if dst = t.rank then invalid_arg "Reliable_ir.send: no self-delivery";
  let g_done = Sync.Ivar.create () in
  (* into the sender table, timer armed, before the frame can reach the wire *)
  let seq =
    Reliable.Sender.track t.tx ~dst
      ~header:(fun seq -> header t ~kind:k_data ~obj:seq)
      { g_body_bytes = body_bytes; g_payload = payload; g_done }
  in
  Nic.local_dispatch t.nic (fun ctx -> t.tx_vh.Nic.vh_activate ctx [| dst; seq |]);
  g_done

