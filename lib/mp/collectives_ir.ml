module Sync = Cni_engine.Sync
module Stats = Cni_engine.Stats
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire
module Fabric = Cni_atm.Fabric
module Ir = Cni_aih.Aih_ir
module Verify = Cni_aih.Aih_verify

(* Same channel and wire protocol as the closure implementation: the two are
   interchangeable on the wire, which is what the parity property tests. *)
let default_channel = Collectives.default_channel
let k_up = 1
let k_down = 2
let k_barrier_up = 3
let k_barrier_down = 4
let barrier_body_bytes = 8
let value_bytes = 64  (* a value frame's body, as Collectives sizes it by default *)

type op = Sum | Max | Min

(* ------------------------------------------------------------------ *)
(* The firmware                                                        *)
(* ------------------------------------------------------------------ *)

(* The combining-tree step as verifiable object code. Episode state lives
   in the handler's board segment as a table of [nslots] slots of
   [slot_words] words each; an episode claims the first free slot on its
   first event and frees it when it is both posted and done. The closure
   implementation's [i_pending] queue disappears: the combining op is baked
   into the code at install time, so early child contributions fold
   immediately (safe — ops are associative and commutative). *)

let nslots = 16
let slot_words = 10
let f_tag = 0 (* seq + 1; 0 = slot free *)
let f_root = 1
let f_barrier = 2
let f_posted = 3 (* local contribution arrived *)
let f_wantd = 4 (* completion requires the release/result *)
let f_hasup = 5
let f_done = 6
let f_got = 7 (* child contributions received *)
let f_acc = 8
let f_haveacc = 9

(* Activation ABI. Every event carries:
     r0 = event (0 post, 1 up, 2 down)   r1 = seq       r2 = tree root
     r3 = value                          r4 = barrier?
   and a post additionally:
     r5 = has_up?                        r6 = want_down?
   Scratch: r7 tag/destination, r8 found-slot base+1, r9 free-slot base+1
   then wire kind, r10 loop counter, r11 slot base, r12 outgoing value,
   r13 virtual rank, r14/r15 temporaries. *)
let ev_post = 0
let ev_up = 1
let ev_down = 2

let program ~op ~rank ~size ~fanout =
  if size < 2 || size > 256 then invalid_arg "Collectives_ir.program: size must be in 2 .. 256";
  if rank < 0 || rank >= size then invalid_arg "Collectives_ir.program: rank out of range";
  if fanout < 1 || fanout > 255 then invalid_arg "Collectives_ir.program: fanout must be in 1 .. 255";
  let a = Ir.Asm.create () in
  let l_scan = Ir.Asm.fresh a and l_next = Ir.Asm.fresh a in
  let l_found = Ir.Asm.fresh a and l_scanned = Ir.Asm.fresh a in
  let l_have = Ir.Asm.fresh a in
  let l_up = Ir.Asm.fresh a and l_down = Ir.Asm.fresh a in
  let l_bcast = Ir.Asm.fresh a in
  let l_tryfin = Ir.Asm.fresh a and l_fin_nonroot = Ir.Asm.fresh a in
  let l_fin_up = Ir.Asm.fresh a in
  let l_tail = Ir.Asm.fresh a and l_halt = Ir.Asm.fresh a in
  (* r13 <- (rank - root + size) mod size, via one conditional subtract *)
  let emit_vrank () =
    let skip = Ir.Asm.fresh a in
    Ir.Asm.const a 14 (rank + size);
    Ir.Asm.bin a Ir.Sub 13 14 2;
    Ir.Asm.bri a Ir.Lt 13 size skip;
    Ir.Asm.bini a Ir.Sub 13 13 size;
    Ir.Asm.place a skip
  in
  (* fold r3 into the slot accumulator with the install-time op *)
  let emit_fold () =
    let init = Ir.Asm.fresh a and store_ = Ir.Asm.fresh a and done_ = Ir.Asm.fresh a in
    Ir.Asm.load a 14 ~base:11 f_haveacc;
    Ir.Asm.bri a Ir.Eq 14 0 init;
    Ir.Asm.load a 15 ~base:11 f_acc;
    (match op with
    | Sum -> Ir.Asm.bin a Ir.Add 15 15 3
    | Max ->
        Ir.Asm.br a Ir.Ge 15 3 store_;
        Ir.Asm.mov a 15 3
    | Min ->
        Ir.Asm.br a Ir.Le 15 3 store_;
        Ir.Asm.mov a 15 3);
    Ir.Asm.place a store_;
    Ir.Asm.store a 15 ~base:11 f_acc;
    Ir.Asm.jmp a done_;
    Ir.Asm.place a init;
    Ir.Asm.store a 3 ~base:11 f_acc;
    Ir.Asm.const a 14 1;
    Ir.Asm.store a 14 ~base:11 f_haveacc;
    Ir.Asm.place a done_
  in
  (* r15 <- (seq << 8) | root; r9 <- up kind for this episode *)
  let emit_obj_kind ~plain ~barrier =
    let skip = Ir.Asm.fresh a in
    Ir.Asm.bini a Ir.Shl 15 1 8;
    Ir.Asm.bin a Ir.Or 15 15 2;
    Ir.Asm.load a 14 ~base:11 f_barrier;
    Ir.Asm.const a 9 plain;
    Ir.Asm.bri a Ir.Eq 14 0 skip;
    Ir.Asm.const a 9 barrier;
    Ir.Asm.place a skip
  in
  (* send r12 up to the parent of virtual rank r13 *)
  let emit_send_up () =
    let skip = Ir.Asm.fresh a in
    emit_obj_kind ~plain:k_up ~barrier:k_barrier_up;
    Ir.Asm.bini a Ir.Sub 14 13 1;
    Ir.Asm.bini a Ir.Div 14 14 fanout;
    Ir.Asm.bin a Ir.Add 7 14 2; (* back to a real rank: (parent + root) mod size *)
    Ir.Asm.bri a Ir.Lt 7 size skip;
    Ir.Asm.bini a Ir.Sub 7 7 size;
    Ir.Asm.place a skip;
    Ir.Asm.send a ~dst:7 ~kind:9 ~obj:15 ~value:12
  in
  (* fan r12 out to the children of virtual rank r13 *)
  let emit_send_down () =
    let head = Ir.Asm.fresh a and done_ = Ir.Asm.fresh a and skip = Ir.Asm.fresh a in
    emit_obj_kind ~plain:k_down ~barrier:k_barrier_down;
    Ir.Asm.const a 10 0;
    Ir.Asm.place a head;
    Ir.Asm.loop a ~counter:10 ~limit:fanout ~exit:done_;
    Ir.Asm.bini a Ir.Mul 14 13 fanout;
    Ir.Asm.bin a Ir.Add 14 14 10; (* child vrank = fanout * v + i, i in 1 .. fanout *)
    Ir.Asm.bri a Ir.Ge 14 size done_; (* children are contiguous: first overflow ends it *)
    Ir.Asm.bin a Ir.Add 7 14 2;
    Ir.Asm.bri a Ir.Lt 7 size skip;
    Ir.Asm.bini a Ir.Sub 7 7 size;
    Ir.Asm.place a skip;
    Ir.Asm.send a ~dst:7 ~kind:9 ~obj:15 ~value:12;
    Ir.Asm.jmp a head;
    Ir.Asm.place a done_
  in
  let store_one field =
    Ir.Asm.const a 14 1;
    Ir.Asm.store a 14 ~base:11 field
  in

  (* --- find the episode's slot (tag = seq + 1), else claim a free one --- *)
  Ir.Asm.bini a Ir.Add 7 1 1;
  Ir.Asm.const a 8 0;
  Ir.Asm.const a 9 0;
  Ir.Asm.const a 10 0;
  Ir.Asm.place a l_scan;
  Ir.Asm.loop a ~counter:10 ~limit:nslots ~exit:l_scanned;
  Ir.Asm.bini a Ir.Sub 11 10 1;
  Ir.Asm.bini a Ir.Mul 11 11 slot_words;
  Ir.Asm.load a 14 ~base:11 f_tag;
  Ir.Asm.br a Ir.Eq 14 7 l_found;
  Ir.Asm.bri a Ir.Ne 14 0 l_next; (* occupied by another episode *)
  Ir.Asm.bri a Ir.Ne 9 0 l_next; (* already have a free candidate *)
  Ir.Asm.bini a Ir.Add 9 11 1;
  Ir.Asm.place a l_next;
  Ir.Asm.jmp a l_scan;
  Ir.Asm.place a l_found;
  Ir.Asm.bini a Ir.Add 8 11 1;
  Ir.Asm.place a l_scanned;
  Ir.Asm.bri a Ir.Ne 8 0 l_have;
  Ir.Asm.bri a Ir.Eq 9 0 l_halt; (* table full: drop (bounds in-flight episodes) *)
  Ir.Asm.mov a 8 9;
  Ir.Asm.bini a Ir.Sub 11 8 1;
  Ir.Asm.const a 14 0;
  for field = f_root to f_haveacc do
    Ir.Asm.store a 14 ~base:11 field
  done;
  Ir.Asm.store a 7 ~base:11 f_tag;
  Ir.Asm.place a l_have;
  Ir.Asm.bini a Ir.Sub 11 8 1;
  Ir.Asm.store a 2 ~base:11 f_root;
  Ir.Asm.store a 4 ~base:11 f_barrier;
  Ir.Asm.bri a Ir.Eq 0 ev_up l_up;
  Ir.Asm.bri a Ir.Eq 0 ev_down l_down;

  (* --- post: the local contribution (ev 0) --- *)
  store_one f_posted;
  Ir.Asm.store a 6 ~base:11 f_wantd;
  Ir.Asm.store a 5 ~base:11 f_hasup;
  Ir.Asm.bri a Ir.Eq 5 0 l_bcast;
  Ir.Asm.bri a Ir.Ne 4 0 l_tryfin; (* barrier: value-free *)
  emit_fold ();
  Ir.Asm.jmp a l_tryfin;
  Ir.Asm.place a l_bcast;
  (* down-only (broadcast): the root's arrival is the release *)
  emit_vrank ();
  Ir.Asm.bri a Ir.Ne 13 0 l_tail;
  store_one f_done;
  Ir.Asm.wake a ~seq:1 ~value:3;
  Ir.Asm.mov a 12 3;
  emit_send_down ();
  Ir.Asm.jmp a l_tail;

  (* --- up: a child subtree's partial --- *)
  Ir.Asm.place a l_up;
  Ir.Asm.load a 14 ~base:11 f_got;
  Ir.Asm.bini a Ir.Add 14 14 1;
  Ir.Asm.store a 14 ~base:11 f_got;
  Ir.Asm.bri a Ir.Ne 4 0 l_tryfin;
  emit_fold ();
  Ir.Asm.jmp a l_tryfin;

  (* --- down: the release / result fans through us --- *)
  Ir.Asm.place a l_down;
  Ir.Asm.load a 14 ~base:11 f_done;
  Ir.Asm.bri a Ir.Ne 14 0 l_tail;
  store_one f_done;
  Ir.Asm.wake a ~seq:1 ~value:3;
  Ir.Asm.mov a 12 3;
  emit_vrank ();
  emit_send_down ();
  Ir.Asm.jmp a l_tail;

  (* --- combine phase step: posted, not done, all children in? --- *)
  Ir.Asm.place a l_tryfin;
  Ir.Asm.load a 14 ~base:11 f_posted;
  Ir.Asm.bri a Ir.Eq 14 0 l_tail;
  Ir.Asm.load a 14 ~base:11 f_done;
  Ir.Asm.bri a Ir.Ne 14 0 l_tail;
  emit_vrank ();
  (* expected children of vrank v: clamp ((size - 1) - fanout * v) to [0, fanout] *)
  let c1 = Ir.Asm.fresh a and c2 = Ir.Asm.fresh a in
  Ir.Asm.bini a Ir.Mul 14 13 fanout;
  Ir.Asm.const a 15 (size - 1);
  Ir.Asm.bin a Ir.Sub 14 15 14;
  Ir.Asm.bri a Ir.Ge 14 0 c1;
  Ir.Asm.const a 14 0;
  Ir.Asm.place a c1;
  Ir.Asm.bri a Ir.Le 14 fanout c2;
  Ir.Asm.const a 14 fanout;
  Ir.Asm.place a c2;
  Ir.Asm.load a 15 ~base:11 f_got;
  Ir.Asm.br a Ir.Ne 15 14 l_tail;
  Ir.Asm.load a 12 ~base:11 f_acc;
  Ir.Asm.bri a Ir.Ne 13 0 l_fin_nonroot;
  (* root: the fold is the episode result; release if wanted *)
  store_one f_done;
  Ir.Asm.wake a ~seq:1 ~value:12;
  Ir.Asm.load a 14 ~base:11 f_wantd;
  Ir.Asm.bri a Ir.Eq 14 0 l_tail;
  emit_send_down ();
  Ir.Asm.jmp a l_tail;
  Ir.Asm.place a l_fin_nonroot;
  Ir.Asm.load a 14 ~base:11 f_wantd;
  Ir.Asm.bri a Ir.Ne 14 0 l_fin_up; (* the release will complete us *)
  (* up-only (reduce): finished the moment the partial leaves *)
  store_one f_done;
  Ir.Asm.wake a ~seq:1 ~value:12;
  Ir.Asm.place a l_fin_up;
  emit_send_up ();
  Ir.Asm.jmp a l_tail;

  (* --- epilogue: free the slot once posted and done --- *)
  Ir.Asm.place a l_tail;
  Ir.Asm.load a 14 ~base:11 f_posted;
  Ir.Asm.bri a Ir.Eq 14 0 l_halt;
  Ir.Asm.load a 14 ~base:11 f_done;
  Ir.Asm.bri a Ir.Eq 14 0 l_halt;
  Ir.Asm.const a 14 0;
  Ir.Asm.store a 14 ~base:11 f_tag;
  Ir.Asm.place a l_halt;
  Ir.Asm.halt a;
  Ir.Asm.assemble a
    ~name:(Printf.sprintf "collectives-%s-r%d-n%d-f%d"
             (match op with Sum -> "sum" | Max -> "max" | Min -> "min")
             rank size fanout)
    ~seg_words:(nslots * slot_words) ~inputs:7

(* ------------------------------------------------------------------ *)
(* Host endpoints                                                      *)
(* ------------------------------------------------------------------ *)

type 'a t = {
  node : 'a Node.t;
  rank : int;
  size : int;
  inject : int -> 'a;
  project : 'a -> int;
  mutable vh : 'a Nic.verified_handler option; (* None when size = 1 *)
  waiters : (int, int Sync.Ivar.t) Hashtbl.t; (* seq -> episode result *)
  mutable next_seq : int;
  s_episodes : Stats.Counter.t;
  s_forwards : Stats.Counter.t;
}

let rank t = t.rank
let size t = t.size
let episodes t = Stats.Counter.value t.s_episodes
let cert t = Option.map (fun vh -> vh.Nic.vh_cert) t.vh

(* the release can arrive (and wake seq) before the local post creates the
   episode, so both sides find-or-create the waiter *)
let waiter t seq =
  match Hashtbl.find_opt t.waiters seq with
  | Some iv -> iv
  | None ->
      let iv = Sync.Ivar.create () in
      Hashtbl.replace t.waiters seq iv;
      iv

let entry t pkt =
  let hdr = Wire.decode pkt.Fabric.header in
  let seq = hdr.Wire.obj lsr 8 and root = hdr.Wire.obj land 0xff in
  let k = hdr.Wire.kind in
  if k = k_up then [| ev_up; seq; root; t.project pkt.Fabric.payload; 0; 0; 0 |]
  else if k = k_barrier_up then [| ev_up; seq; root; 0; 1; 0; 0 |]
  else if k = k_down then [| ev_down; seq; root; t.project pkt.Fabric.payload; 0; 0; 0 |]
  else if k = k_barrier_down then [| ev_down; seq; root; 0; 1; 0; 0 |]
  else failwith (Printf.sprintf "Collectives_ir: unknown kind %d on channel %d" k default_channel)

let on_send t (ctx : 'a Nic.ctx) ~dst ~kind ~obj ~value =
  if kind = k_down || kind = k_barrier_down then Stats.Counter.incr t.s_forwards;
  let header =
    Wire.encode
      {
        Wire.kind;
        cacheable = false;
        has_data = false;
        src = t.rank;
        channel = default_channel;
        obj;
        aux = 0;
      }
  in
  if kind = k_barrier_up || kind = k_barrier_down then
    ctx.Nic.reply ~dst ~header ~body_bytes:barrier_body_bytes ~data:Nic.No_data
      ~payload:(Obj.magic 0)
  else
    ctx.Nic.reply ~dst ~header ~body_bytes:value_bytes ~data:Nic.No_data
      ~payload:(t.inject value)

let on_wake t ~seq ~value = Sync.Ivar.fill (waiter t seq) value

let b2i b = if b then 1 else 0

let run t ~root ~barrier ~has_up ~want_down v =
  if t.size = 1 then v
  else begin
    if root < 0 || root >= t.size then invalid_arg "Collectives_ir: bad root";
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let iv = waiter t seq in
    let vh = Option.get t.vh in
    Nic.local_dispatch (Node.nic t.node) (fun ctx ->
        vh.Nic.vh_activate ctx
          [| ev_post; seq; root; (if barrier then 0 else v); b2i barrier; b2i has_up;
             b2i want_down |]);
    let r = Node.blocking t.node (fun () -> Sync.Ivar.read iv) in
    Hashtbl.remove t.waiters seq;
    Stats.Counter.incr t.s_episodes;
    r
  end

let barrier t = if t.size > 1 then ignore (run t ~root:0 ~barrier:true ~has_up:true ~want_down:true 0)
let broadcast t ~root v = run t ~root ~barrier:false ~has_up:false ~want_down:true v
let reduce t ~root v = run t ~root ~barrier:false ~has_up:true ~want_down:false v
let allreduce t v = run t ~root:0 ~barrier:false ~has_up:true ~want_down:true v

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

let install ?(fanout = 2) ~op ~inject ~project cluster =
  let n = Cluster.size cluster in
  if n > 256 then
    invalid_arg "Collectives_ir.install: at most 256 nodes (the root rides in the header)";
  if fanout < 1 || fanout > 255 then
    invalid_arg "Collectives_ir.install: fanout must be in 1 .. 255";
  let registry = Cluster.metrics cluster in
  Array.init n (fun rank ->
      let node = Cluster.node cluster rank in
      let counter name =
        Stats.Registry.counter registry ~node:rank ~subsystem:"collectives-ir" name
      in
      let t =
        {
          node;
          rank;
          size = n;
          inject;
          project;
          vh = None;
          waiters = Hashtbl.create 16;
          next_seq = 0;
          s_episodes = counter "episodes";
          s_forwards = counter "forwards";
        }
      in
      if n > 1 then begin
        let prog = program ~op ~rank ~size:n ~fanout in
        match
          Nic.install_handler_verified (Node.nic node)
            ~pattern:(Wire.pattern_channel ~channel:default_channel)
            ~program:prog ~entry:(entry t) ~on_send:(on_send t) ~on_wake:(on_wake t)
        with
        | Ok vh -> t.vh <- Some vh
        | Error rjs ->
            failwith
              (Printf.sprintf "Collectives_ir.install: shipped firmware rejected: %s"
                 (Verify.explain_all rjs))
      end;
      t)
