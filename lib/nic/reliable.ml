module Engine = Cni_engine.Engine
module Time = Cni_engine.Time
module Stats = Cni_engine.Stats

type config = { timeout : Time.t; backoff : int; max_tries : int; max_rto : Time.t }

(* The 1 ms base timeout sits well above the fabric round-trip (a few us) plus
   the host-side queueing seen under bursty 8-processor traffic, so spurious
   retransmissions are rare at zero loss; backoff doubles it on each retry up
   to the 100 ms cap (reached only after ~7 consecutive losses of one frame,
   so the cap never fires in the deterministic ablation sweeps). *)
let default = { timeout = Time.us 1000; backoff = 2; max_tries = 12; max_rto = Time.ms 100 }

let check_config c =
  if c.timeout <= Time.zero then invalid_arg "Reliable: timeout must be positive";
  if c.backoff < 1 then invalid_arg "Reliable: backoff must be >= 1";
  if c.max_tries < 1 then invalid_arg "Reliable: max_tries must be >= 1";
  if c.max_rto < c.timeout then invalid_arg "Reliable: max_rto must be >= timeout"

(* Ack frames are ordinary Wire headers on a channel/kind no protocol uses;
   they are intercepted by the receiving interface before classification and
   never reach a handler. [obj] carries the acknowledged sequence number. *)
let ack_kind = 0xFE
let ack_channel = 0xFFFF

type failure = { node : int; dst : int; channel : int; seq : int; tries : int }

exception Delivery_failed of failure
exception Peer_dead of failure

let () =
  Printexc.register_printer (function
    | Delivery_failed f ->
        Some
          (Printf.sprintf
             "Delivery_failed: node %d -> %d, channel %d, seq %d undelivered after %d \
              transmissions"
             f.node f.dst f.channel f.seq f.tries)
    | Peer_dead f ->
        Some
          (Printf.sprintf
             "Peer_dead: node %d -> %d, channel %d, seq %d — destination crashed; gave up \
              after %d transmissions"
             f.node f.dst f.channel f.seq f.tries)
    | _ -> None)

module Window = struct
  type t = { mutable floor : int; above : (int, unit) Hashtbl.t }

  let create () = { floor = 0; above = Hashtbl.create 8 }
  let floor t = t.floor
  let seen t seq = seq <= t.floor || Hashtbl.mem t.above seq

  let observe t seq =
    if seq = t.floor + 1 && Hashtbl.length t.above = 0 then begin
      (* the next frame in order, nothing above the floor: no table op *)
      t.floor <- seq;
      `Fresh
    end
    else if seen t seq then `Duplicate
    else begin
      Hashtbl.replace t.above seq ();
      (* advance the floor over any now-contiguous prefix so the out-of-order
         set stays bounded by the sender's in-flight window *)
      while Hashtbl.mem t.above (t.floor + 1) do
        Hashtbl.remove t.above (t.floor + 1);
        t.floor <- t.floor + 1
      done;
      `Fresh
    end
end

(* ------------------------------------------------------------------ *)
(* Sender table                                                        *)
(* ------------------------------------------------------------------ *)

module Sender = struct
  type 'f frame = {
    dst : int;
    seq : int;  (* what the ack names; the pending key with [dst] *)
    header : Bytes.t;
    body : 'f;
    mutable tries : int;  (* transmissions so far *)
    mutable rto : Time.t;  (* next retransmission timeout *)
    mutable timer : int;  (* generation of the one timer that may act *)
  }

  type 'f t = {
    cfg : config;
    eng : Engine.t;
    node : int;
    peer_down : int -> bool;
    transmit : 'f frame -> unit;
    retransmit : 'f frame -> unit;
    retransmits : Stats.Counter.t;
    rto_capped : Stats.Counter.t;  (* arm events clamped at max_rto *)
    next_seq : (int, int) Hashtbl.t;  (* last sequence number per destination *)
    pending : (int * int, 'f frame) Hashtbl.t;  (* (dst, seq) *)
    mutable parked : 'f frame list;  (* waiting out a board crash, newest first *)
    mutable up : bool;
    mutable timers : int;  (* timers armed so far: the next timer's generation *)
  }

  let create cfg eng ~node ~counter ~peer_down ~transmit ~retransmit =
    check_config cfg;
    { cfg; eng; node; peer_down; transmit; retransmit;
      retransmits = counter "retransmits"; rto_capped = counter "rto_capped";
      next_seq = Hashtbl.create 8; pending = Hashtbl.create 32; parked = []; up = true;
      timers = 0 }

  (* Arm (or re-arm) the retransmission timer of one pending frame.
     Exhausting the budget kills the run with a structured error in place of
     a silent hang; a crashed destination is a diagnosis, not a timeout.

     The timer names its frame — (dst, seq) and a generation — and finds it
     in [pending] when it fires; it does not hold it. An ack settles a frame
     within tens of us, long before the RTO, and the acked frame is then
     free to go. Generations come from the table's own counter, so they are
     unique: only the newest arm's timer acts, and never on another frame
     that reuses (dst, seq) after a settle or a park. *)
  let rec arm t e =
    t.timers <- t.timers + 1;
    e.timer <- t.timers;
    let dst = e.dst and seq = e.seq and gen = t.timers in
    Engine.after t.eng e.rto (fun () -> fire t ~dst ~seq ~gen)

  (* most timers fire after their ack: [find_opt]'s miss raises nothing *)
  and fire t ~dst ~seq ~gen =
    match Hashtbl.find_opt t.pending (dst, seq) with
    | None -> ()
    | Some e when e.timer <> gen -> ()
    | Some e ->
        if e.tries >= t.cfg.max_tries then begin
          Hashtbl.remove t.pending (e.dst, e.seq);
          let channel = (Wire.decode e.header).Wire.channel in
          let f = { node = t.node; dst = e.dst; channel; seq = e.seq; tries = e.tries } in
          let exn = if t.peer_down e.dst then Peer_dead f else Delivery_failed f in
          Engine.spawn t.eng ~name:"nic-delivery-failed" (fun () -> raise exn)
        end
        else begin
          e.tries <- e.tries + 1;
          let next_rto = Time.(e.rto * t.cfg.backoff) in
          if next_rto > t.cfg.max_rto then begin
            Stats.Counter.incr t.rto_capped;
            e.rto <- t.cfg.max_rto
          end
          else e.rto <- next_rto;
          Stats.Counter.incr t.retransmits;
          t.retransmit e;
          arm t e
        end

  (* The one crash rule: on a live board a new frame is pending with its
     timer armed (and sent when [send]); on a dead board it waits with the
     parked frames, whoever posted it. *)
  let enter t e ~send =
    if t.up then begin
      Hashtbl.replace t.pending (e.dst, e.seq) e;
      arm t e;
      if send then t.transmit e
    end
    else t.parked <- e :: t.parked

  let next_seq t dst =
    let seq = 1 + Option.value (Hashtbl.find_opt t.next_seq dst) ~default:0 in
    Hashtbl.replace t.next_seq dst seq;
    seq

  let frame t ~dst ~seq ~header body =
    { dst; seq; header; body; tries = 1; rto = t.cfg.timeout; timer = 0 }

  let post t ~dst ~header body =
    let seq = next_seq t dst in
    enter t ~send:true (frame t ~dst ~seq ~header:(Wire.with_aux header seq) body)

  let track t ~dst ~header body =
    let seq = next_seq t dst in
    enter t ~send:false (frame t ~dst ~seq ~header:(header seq) body);
    seq

  let find t ~dst ~seq = Hashtbl.find_opt t.pending (dst, seq)

  (* the frame leaves [pending], so its timer finds nothing to act on *)
  let settle t ~dst ~seq =
    match Hashtbl.find_opt t.pending (dst, seq) with
    | Some _ as found ->
        Hashtbl.remove t.pending (dst, seq);
        found
    | None -> None

  (* The board's timers die with it (even one that fires after the restart
     armed the next: the re-arm's generation is newer); the frames stay. *)
  let park t =
    t.up <- false;
    Hashtbl.iter (fun _ e -> t.parked <- e :: t.parked) t.pending;
    Hashtbl.reset t.pending

  (* A parked frame goes out again as it was, sequence number and all: the
     receiver's window admits whichever copy lands first and calls every
     later one a duplicate, so the frame is delivered exactly once. *)
  let resume t =
    t.up <- true;
    let parked = List.rev t.parked in
    t.parked <- [];
    List.iter
      (fun e ->
        e.tries <- 1;
        e.rto <- t.cfg.timeout;
        enter t e ~send:true)
      parked

  let unacked t = Hashtbl.length t.pending + List.length t.parked
  let retransmits t = Stats.Counter.value t.retransmits
  let rto_capped t = Stats.Counter.value t.rto_capped
end

(* ------------------------------------------------------------------ *)
(* Receiver verdict                                                    *)
(* ------------------------------------------------------------------ *)

module Receiver = struct
  type t = (int, Window.t) Hashtbl.t  (* per-source dedup *)
  type verdict = [ `Unsequenced | `Fresh | `Duplicate ]

  let create () : t = Hashtbl.create 8

  (* runs on every received frame: Hashtbl.find, unlike find_opt, allocates nothing *)
  let judge (t : t) ~src ~aux : verdict =
    if aux = 0 then `Unsequenced
    else
      let w =
        match Hashtbl.find t src with
        | w -> w
        | exception Not_found ->
            let w = Window.create () in
            Hashtbl.replace t src w;
            w
      in
      (Window.observe w aux :> verdict)
end
