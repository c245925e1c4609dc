module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire

type 'a envelope = { src : int; tag : int; bytes : int; value : 'a }

type 'a waiter = { w_src : int option; w_tag : int; resume : 'a envelope -> unit }

type 'a t = {
  node : 'a envelope Node.t;
  rank : int;
  size : int;
  mutable mailbox : 'a envelope list; (* unmatched, arrival order (reversed) *)
  mutable waiters : 'a waiter list; (* registration order (reversed) *)
  mutable collective_seq : int;
  scratch_buffer : int;
  coll : ('a envelope, 'a envelope) Collectives.t option;
      (* NIC-resident collectives endpoint; None = host-driven collectives *)
}

let channel = 2
let reserved_tag_base = 1 lsl 20

let rank t = t.rank
let size t = t.size

let matches ~src ~tag (e : 'a envelope) =
  e.tag = tag && match src with None -> true | Some s -> e.src = s

(* deliver an envelope: wake the first matching waiter or park it *)
let deliver t e =
  let rec split acc = function
    | [] -> None
    | w :: rest when matches ~src:w.w_src ~tag:w.w_tag e ->
        Some (w, List.rev_append acc rest)
    | w :: rest -> split (w :: acc) rest
  in
  (* waiters is reversed (newest first); match in registration order *)
  match split [] (List.rev t.waiters) with
  | Some (w, remaining_in_order) ->
      t.waiters <- List.rev remaining_in_order;
      w.resume e
  | None -> t.mailbox <- e :: t.mailbox

let collectives_channel = 3

let install ?(nic_collectives = false) ?fanout cluster =
  let n = Cluster.size cluster in
  let coll =
    if nic_collectives then
      (* the endpoint's value type IS the wire payload type (an envelope), so
         inject/project are the identity; a value's wire size is the
         envelope's [bytes] field *)
      Some
        (Collectives.install ~channel:collectives_channel ?fanout
           ~bytes_of:(fun (e : 'a envelope) -> e.bytes)
           ~inject:(fun e -> e)
           ~project:(fun e -> e)
           cluster)
    else None
  in
  let endpoints =
    Array.init n (fun rank ->
        {
          node = Cluster.node cluster rank;
          rank;
          size = n;
          mailbox = [];
          waiters = [];
          collective_seq = 0;
          scratch_buffer = (1 lsl 24) + (rank lsl 20);
          coll = Option.map (fun c -> c.(rank)) coll;
        })
  in
  Array.iter
    (fun t ->
      ignore
        (Nic.install_handler (Node.nic t.node)
           ~pattern:(Wire.pattern_channel ~channel)
           ~code_bytes:512
           (fun ctx pkt ->
             ctx.Cni_nic.Nic.charge 30;
             let hdr = Wire.decode pkt.Cni_atm.Fabric.header in
             (* bulk payloads land in the posted receive buffer *)
             if hdr.Wire.has_data then
               ctx.Cni_nic.Nic.deliver_page ~vaddr:t.scratch_buffer
                 ~bytes:pkt.Cni_atm.Fabric.body_bytes ~cacheable:false;
             deliver t pkt.Cni_atm.Fabric.payload)))
    endpoints;
  endpoints

let check_tag tag =
  if tag < 0 || tag >= reserved_tag_base then
    invalid_arg "Mp.send: tag out of range (reserved for collectives)"

let send_internal t ~dst ~tag ~bytes ~buffer value =
  if dst < 0 || dst >= t.size then invalid_arg "Mp.send: bad destination";
  let e = { src = t.rank; tag; bytes; value } in
  if dst = t.rank then begin
    (* local delivery: a couple of queue operations, no wire *)
    Node.overhead_cycles t.node 40;
    deliver t e
  end
  else begin
    let bulk = bytes >= 1024 in
    let header =
      Wire.encode
        {
          Wire.kind = 1;
          cacheable = bulk;
          has_data = bulk;
          src = t.rank;
          channel;
          obj = tag;
          aux = 0;
        }
    in
    let data =
      if bulk then Cni_nic.Nic.Page { vaddr = buffer; bytes; cacheable = true }
      else Cni_nic.Nic.No_data
    in
    Nic.send (Node.nic t.node) ~dst ~header
      ~body_bytes:(if bulk then 0 else bytes)
      ~data ~payload:e
  end

let send t ~dst ~tag ?(bytes = 64) ?buffer value =
  check_tag tag;
  let buffer = Option.value buffer ~default:t.scratch_buffer in
  send_internal t ~dst ~tag ~bytes ~buffer value

let take_from_mailbox t ~src ~tag =
  let rec split acc = function
    | [] -> None
    | e :: rest when matches ~src ~tag e -> Some (e, List.rev_append acc rest)
    | e :: rest -> split (e :: acc) rest
  in
  (* mailbox is reversed (newest first); match in arrival order *)
  match split [] (List.rev t.mailbox) with
  | Some (e, remaining_in_order) ->
      t.mailbox <- List.rev remaining_in_order;
      Some e
  | None -> None

let recv_internal t ?src ~tag () =
  match take_from_mailbox t ~src ~tag with
  | Some e -> e
  | None ->
      (* register the waiter BEFORE blocking: [Node.blocking] flushes batched
         work (a yield), and a message landing in that window must find the
         waiter rather than park unmatched — an ivar tolerates being filled
         before it is read *)
      let iv = Sync.Ivar.create () in
      t.waiters <-
        { w_src = src; w_tag = tag; resume = (fun e -> Sync.Ivar.fill iv e) } :: t.waiters;
      Node.blocking t.node (fun () -> Sync.Ivar.read iv)

let recv t ?src ~tag () =
  check_tag tag;
  recv_internal t ?src ~tag ()

(* A receive that gives up: races the waiter against an engine timer. The
   waiter is removed on timeout so a late-arriving message parks in the
   mailbox (observable by a later receive) instead of resuming a dead
   continuation; the fill-once flag arbitrates the race when message and
   timer land on the same instant. *)
let recv_timeout t ?src ~tag ~timeout () =
  check_tag tag;
  if timeout <= Cni_engine.Time.zero then invalid_arg "Mp.recv_timeout: timeout must be positive";
  match take_from_mailbox t ~src ~tag with
  | Some e -> Some e
  | None ->
      let iv = Sync.Ivar.create () in
      let settled = ref false in
      let w =
        { w_src = src; w_tag = tag;
          resume =
            (fun e ->
              settled := true;
              Sync.Ivar.fill iv (Some e)) }
      in
      t.waiters <- w :: t.waiters;
      let eng = Node.engine t.node in
      Engine.after eng timeout (fun () ->
          if not !settled then begin
            settled := true;
            t.waiters <- List.filter (fun w' -> w' != w) t.waiters;
            Sync.Ivar.fill iv None
          end);
      Node.blocking t.node (fun () -> Sync.Ivar.read iv)

let try_recv t ?src ~tag () =
  check_tag tag;
  take_from_mailbox t ~src ~tag

let pending t = List.length t.mailbox

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)
(* ------------------------------------------------------------------ *)

(* Every node calls collectives in the same order, so a per-endpoint
   sequence number gives collision-free internal tags. *)
let next_tags t =
  let seq = t.collective_seq in
  t.collective_seq <- seq + 1;
  fun round -> reserved_tag_base + (seq * 64) + round

(* Barrier messages carry no meaningful payload, but the envelope type wants
   an ['a]; an immediate placeholder is stored and — because reserved tags
   are rejected by the public [recv] — can never be read by user code. *)
let barrier_placeholder : 'a. unit -> 'a = fun () -> Obj.magic 0

let host_barrier t =
  if t.size > 1 then begin
    let tag = next_tags t in
    let round = ref 0 in
    let dist = ref 1 in
    (* dissemination barrier: in round k, signal rank+2^k and await the
       signal from rank-2^k; after ceil(log2 n) rounds everyone has
       (transitively) heard from everyone *)
    while !dist < t.size do
      let to_ = (t.rank + !dist) mod t.size in
      let from = (t.rank - !dist + t.size) mod t.size in
      send_internal t ~dst:to_ ~tag:(tag !round) ~bytes:16 ~buffer:t.scratch_buffer
        (barrier_placeholder ());
      ignore (recv_internal t ~src:from ~tag:(tag !round) ());
      incr round;
      dist := !dist * 2
    done
  end

let vrank t ~root = (t.rank - root + t.size) mod t.size
let unvrank t ~root v = (v + root) mod t.size

let host_broadcast t ~root ~bytes value =
  if t.size = 1 then value
  else begin
    let tag = next_tags t in
    let vr = vrank t ~root in
    let result = ref value in
    let mask = ref 1 in
    let round = ref 0 in
    while !mask < t.size do
      if vr >= !mask && vr < 2 * !mask then begin
        let from = unvrank t ~root (vr - !mask) in
        result := (recv_internal t ~src:from ~tag:(tag !round) ()).value
      end
      else if vr < !mask && vr + !mask < t.size then begin
        let to_ = unvrank t ~root (vr + !mask) in
        send_internal t ~dst:to_ ~tag:(tag !round) ~bytes ~buffer:t.scratch_buffer !result
      end;
      incr round;
      mask := !mask * 2
    done;
    !result
  end

let host_reduce t ~root ~op ~bytes value =
  if t.size = 1 then value
  else begin
    let tag = next_tags t in
    let vr = vrank t ~root in
    let acc = ref value in
    let mask = ref 1 in
    let round = ref 0 in
    let continue = ref true in
    while !continue && !mask < t.size do
      if vr land !mask <> 0 then begin
        (* pass the partial down the tree and leave *)
        let to_ = unvrank t ~root (vr - !mask) in
        send_internal t ~dst:to_ ~tag:(tag !round) ~bytes ~buffer:t.scratch_buffer !acc;
        continue := false
      end
      else if vr + !mask < t.size then begin
        let from = unvrank t ~root (vr + !mask) in
        let e = recv_internal t ~src:from ~tag:(tag !round) () in
        acc := op !acc e.value
      end;
      incr round;
      mask := !mask * 2
    done;
    (* ranks that sent early must still burn the remaining tag sequence; the
       per-collective tag block makes that a no-op (tags are unique) *)
    !acc
  end

(* The NIC-resident path lifts values into envelopes (the wire payload type)
   so one Collectives installation serves any user value type; [op] is
   applied to the carried values. *)
let envelope t ~bytes value = { src = t.rank; tag = reserved_tag_base; bytes; value }

let lift op e1 e2 = { e1 with value = op e1.value e2.value }

let barrier t =
  match t.coll with Some c -> Collectives.barrier c | None -> host_barrier t

let broadcast t ~root ?(bytes = 64) value =
  match t.coll with
  | Some c -> (Collectives.broadcast c ~root (envelope t ~bytes value)).value
  | None -> host_broadcast t ~root ~bytes value

let reduce t ~root ~op ?(bytes = 64) value =
  match t.coll with
  | Some c -> (Collectives.reduce c ~root ~op:(lift op) (envelope t ~bytes value)).value
  | None -> host_reduce t ~root ~op ~bytes value

let allreduce t ~op ?(bytes = 64) value =
  match t.coll with
  | Some c -> (Collectives.allreduce c ~op:(lift op) (envelope t ~bytes value)).value
  | None ->
      let partial = host_reduce t ~root:0 ~op ~bytes value in
      host_broadcast t ~root:0 ~bytes partial

let nic_collective t = Option.is_some t.coll
