module Sync = Cni_engine.Sync
module Stats = Cni_engine.Stats
module Params = Cni_machine.Params
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire
module Fabric = Cni_atm.Fabric

let default_channel = 3

(* Wire kinds on the collectives channel. Value-free barrier traffic gets its
   own kinds so the combining machinery (inject/project/bytes_of/op) is never
   consulted for it. *)
let k_up = 1
let k_down = 2
let k_barrier_up = 3
let k_barrier_down = 4

(* up/down control frames carry an 8-byte descriptor besides the header *)
let barrier_body_bytes = 8

(* One in-flight episode's combining-tree state, as it lives in the board's
   memory. Ups from the subtree may arrive before the local contribution is
   posted (the op is unknown until then), so early contributions queue in
   [i_pending]. *)
type 'v inst = {
  i_root : int;
  mutable i_barrier : bool;  (* value-free episode *)
  mutable i_op : ('v -> 'v -> 'v) option;
  mutable i_acc : 'v option;  (* fold of the contributions seen so far *)
  mutable i_pending : 'v list;  (* queued until the combining op is known *)
  mutable i_got : int;  (* child contributions received *)
  mutable i_arrived : bool;  (* local contribution posted *)
  mutable i_up_sent : bool;
  mutable i_want_down : bool;  (* completion requires the release/result *)
  mutable i_result : 'v option;
  mutable i_done : bool;
  i_waiter : unit Sync.Ivar.t;  (* the host fiber; woken exactly once *)
}

type ('v, 'a) t = {
  node : 'a Node.t;
  rank : int;
  size : int;
  fanout : int;
  channel : int;
  combine_cycles : int;  (* per combine/forward step, protocol clock *)
  inject : 'v -> 'a;
  project : 'a -> 'v;
  bytes_of : 'v -> int;
  insts : (int, 'v inst) Hashtbl.t;  (* seq -> episode state *)
  mutable next_seq : int;
  s_episodes : Stats.Counter.t;
  s_combines : Stats.Counter.t;
  s_forwards : Stats.Counter.t;
}

let rank t = t.rank
let size t = t.size
let episodes t = Stats.Counter.value t.s_episodes

(* ------------------------------------------------------------------ *)
(* The combining tree                                                  *)
(* ------------------------------------------------------------------ *)

(* A [fanout]-ary tree rooted at [root], laid out over virtual ranks so any
   node can serve as the root without reprogramming the boards — the same
   arithmetic as {!Collectives_ir}'s firmware. The tree does not change
   when a rank crashes: frames to and from it park and re-send through the
   reliable layer, and the episode finishes once the rank is back. *)
let vrank t ~root = (t.rank - root + t.size) mod t.size
let unvrank t ~root v = (v + root) mod t.size

let parent t ~root =
  let v = vrank t ~root in
  if v = 0 then None else Some (unvrank t ~root ((v - 1) / t.fanout))

let children t ~root =
  let first = (t.fanout * vrank t ~root) + 1 in
  List.filter_map
    (fun c -> if c < t.size then Some (unvrank t ~root c) else None)
    (List.init t.fanout (fun i -> first + i))

let nchildren t ~root = List.length (children t ~root)

(* episode id and tree root travel in the header's obj field *)
let obj_of ~seq ~root = (seq lsl 8) lor root

let header t ~kind ~seq ~root =
  Wire.encode
    {
      Wire.kind;
      cacheable = false;
      has_data = false;
      src = t.rank;
      channel = t.channel;
      obj = obj_of ~seq ~root;
      aux = 0;
    }

(* ------------------------------------------------------------------ *)
(* Episode state machine (runs in protocol context)                    *)
(* ------------------------------------------------------------------ *)

let inst t ~seq ~root =
  match Hashtbl.find_opt t.insts seq with
  | Some i -> i
  | None ->
      let i =
        {
          i_root = root;
          i_barrier = false;
          i_op = None;
          i_acc = None;
          i_pending = [];
          i_got = 0;
          i_arrived = false;
          i_up_sent = false;
          i_want_down = false;
          i_result = None;
          i_done = false;
          i_waiter = Sync.Ivar.create ();
        }
      in
      Hashtbl.replace t.insts seq i;
      i

let fold t i v =
  match i.i_op with
  | None -> i.i_pending <- v :: i.i_pending
  | Some op -> (
      match i.i_acc with
      | None -> i.i_acc <- Some v
      | Some a ->
          Stats.Counter.incr t.s_combines;
          i.i_acc <- Some (op a v))

let complete i =
  i.i_done <- true;
  Sync.Ivar.fill i.i_waiter ()

let send_up t (ctx : 'a Nic.ctx) i ~seq =
  i.i_up_sent <- true;
  match parent t ~root:i.i_root with
  | None -> assert false (* the root has no parent *)
  | Some dst ->
      if i.i_barrier then
        ctx.Nic.reply ~dst
          ~header:(header t ~kind:k_barrier_up ~seq ~root:i.i_root)
          ~body_bytes:barrier_body_bytes ~data:Nic.No_data ~payload:(Obj.magic 0)
      else
        let v = Option.get i.i_acc in
        ctx.Nic.reply ~dst
          ~header:(header t ~kind:k_up ~seq ~root:i.i_root)
          ~body_bytes:(t.bytes_of v) ~data:Nic.No_data ~payload:(t.inject v)

let send_down t (ctx : 'a Nic.ctx) i ~seq =
  List.iter
    (fun dst ->
      Stats.Counter.incr t.s_forwards;
      if i.i_barrier then
        ctx.Nic.reply ~dst
          ~header:(header t ~kind:k_barrier_down ~seq ~root:i.i_root)
          ~body_bytes:barrier_body_bytes ~data:Nic.No_data ~payload:(Obj.magic 0)
      else
        let v = Option.get i.i_result in
        ctx.Nic.reply ~dst
          ~header:(header t ~kind:k_down ~seq ~root:i.i_root)
          ~body_bytes:(t.bytes_of v) ~data:Nic.No_data ~payload:(t.inject v))
    (children t ~root:i.i_root)

(* Combine phase step: once the local contribution is in and every child has
   reported, the subtree's partial moves up (or, at the root, the episode's
   result is final and the release phase starts). State transitions complete
   before any message leaves: sends may yield the protocol processor. *)
let try_finish_up t ctx i ~seq =
  if i.i_arrived && (not i.i_up_sent) && (not i.i_done) && i.i_got = nchildren t ~root:i.i_root
  then
    if vrank t ~root:i.i_root = 0 then begin
      i.i_result <- i.i_acc;
      let down = i.i_want_down in
      complete i;
      if down then send_down t ctx i ~seq
    end
    else if i.i_want_down then send_up t ctx i ~seq
    else begin
      (* up-only (reduce): this node is finished the moment its partial
         leaves; the result is meaningful only at the root *)
      i.i_result <- i.i_acc;
      complete i;
      send_up t ctx i ~seq
    end

let on_up t ctx ~seq ~root ~barrier ~value =
  let i = inst t ~seq ~root in
  i.i_barrier <- barrier;
  ctx.Nic.charge t.combine_cycles;
  i.i_got <- i.i_got + 1;
  Option.iter (fun v -> fold t i v) value;
  try_finish_up t ctx i ~seq

let on_down t ctx ~seq ~root ~barrier ~value =
  let i = inst t ~seq ~root in
  if not i.i_done then begin
    i.i_barrier <- barrier;
    ctx.Nic.charge t.combine_cycles;
    i.i_result <- value;
    complete i;
    (* releases fan out board-to-board: a subtree node forwards without any
       involvement from its (possibly still computing) host *)
    send_down t ctx i ~seq
  end

(* ------------------------------------------------------------------ *)
(* Host entry points                                                   *)
(* ------------------------------------------------------------------ *)

(* Every node calls the collectives in the same order, so the per-endpoint
   sequence number identifies the episode cluster-wide (cf. Mp's collective
   tags). The host's only protocol work is posting the local contribution —
   [Nic.local_dispatch] — and blocking on the episode ivar; combining and
   forwarding happen in protocol context as the tree traffic arrives. *)
let run t ~root ~barrier ~has_up ~want_down ~op v =
  if t.size = 1 then v
  else begin
    if root < 0 || root >= t.size then invalid_arg "Collectives: bad root";
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let i = inst t ~seq ~root in
    i.i_barrier <- barrier;
    i.i_op <- op;
    i.i_want_down <- want_down;
    Nic.local_dispatch (Node.nic t.node) (fun ctx ->
        let queued = List.length i.i_pending in
        ctx.Nic.charge (t.combine_cycles * (1 + queued));
        i.i_arrived <- true;
        if has_up then begin
          if not barrier then begin
            fold t i v;
            let pending = List.rev i.i_pending in
            i.i_pending <- [];
            List.iter (fun q -> fold t i q) pending
          end;
          try_finish_up t ctx i ~seq
        end
        else if vrank t ~root = 0 then begin
          (* down-only (broadcast): the root's arrival is the release *)
          i.i_result <- Some v;
          complete i;
          send_down t ctx i ~seq
        end);
    Node.blocking t.node (fun () -> Sync.Ivar.read i.i_waiter);
    Hashtbl.remove t.insts seq;
    Stats.Counter.incr t.s_episodes;
    match i.i_result with Some r -> r | None -> v
  end

let barrier t =
  if t.size > 1 then
    ignore
      (run t ~root:0 ~barrier:true ~has_up:true ~want_down:true ~op:None
         (* never folded, injected or sized: barrier frames are value-free *)
         (Obj.magic 0))

let broadcast t ~root v = run t ~root ~barrier:false ~has_up:false ~want_down:true ~op:None v

let reduce t ~root ~op v =
  run t ~root ~barrier:false ~has_up:true ~want_down:false ~op:(Some op) v

let allreduce t ~op v =
  run t ~root:0 ~barrier:false ~has_up:true ~want_down:true ~op:(Some op) v

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

let install ?(channel = default_channel) ?(fanout = 2) ?(bytes_of = fun _ -> 64) ~inject
    ~project cluster =
  let n = Cluster.size cluster in
  if n > 256 then
    invalid_arg "Collectives.install: at most 256 nodes (the root rides in the header)";
  if fanout < 1 then invalid_arg "Collectives.install: fanout must be >= 1";
  let registry = Cluster.metrics cluster in
  let endpoints =
    Array.init n (fun rank ->
        let node = Cluster.node cluster rank in
        let p = Nic.params (Node.nic node) in
        let counter name =
          Stats.Registry.counter registry ~node:rank ~subsystem:"collectives" name
        in
        {
          node;
          rank;
          size = n;
          fanout;
          channel;
          combine_cycles = p.Params.handler_dispatch_nic_cycles;
          inject;
          project;
          bytes_of;
          insts = Hashtbl.create 16;
          next_seq = 0;
          s_episodes = counter "episodes";
          s_combines = counter "combines";
          s_forwards = counter "forwards";
        })
  in
  Array.iter
    (fun t ->
      (* one AIH per board: 2 KB covers the handler's object code plus its
         combining-tree state (kept in the endpoint, which a scrub leaves) *)
      ignore
        (Nic.install_handler (Node.nic t.node)
           ~pattern:(Wire.pattern_channel ~channel)
           ~code_bytes:2048
           (fun ctx pkt ->
             let hdr = Wire.decode pkt.Fabric.header in
             let seq = hdr.Wire.obj lsr 8 and root = hdr.Wire.obj land 0xff in
             let k = hdr.Wire.kind in
             if k = k_up then
               on_up t ctx ~seq ~root ~barrier:false
                 ~value:(Some (t.project pkt.Fabric.payload))
             else if k = k_barrier_up then on_up t ctx ~seq ~root ~barrier:true ~value:None
             else if k = k_down then
               on_down t ctx ~seq ~root ~barrier:false
                 ~value:(Some (t.project pkt.Fabric.payload))
             else if k = k_barrier_down then on_down t ctx ~seq ~root ~barrier:true ~value:None
             else failwith (Printf.sprintf "Collectives: unknown kind %d on channel %d" k t.channel))))
    endpoints;
  endpoints
