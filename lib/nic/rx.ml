module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Time = Cni_engine.Time
module Stats = Cni_engine.Stats
module Trace = Cni_engine.Trace
module Params = Cni_machine.Params

type host = {
  host_waiting : unit -> bool; steal : Time.t -> unit;
  invalidate_range : addr:int -> bytes:int -> unit; overhead : Time.t -> unit;
}

type adaptive = {
  ra_alpha : float; ra_poll_gap : Time.t; ra_interrupt_gap : Time.t; ra_hysteresis : float;
}

let default_adaptive =
  { ra_alpha = 0.25;
    ra_poll_gap = Time.us 20;
    ra_interrupt_gap = Time.us 160;
    ra_hysteresis = 2.0 }

type policy = Rx_interrupt | Rx_poll | Rx_hybrid | Rx_adaptive of adaptive

type mode = [ `Interrupt | `Hybrid | `Poll ]

let check policy ~batch =
  if batch < 1 then invalid_arg "Nic: rx_batch must be >= 1";
  match policy with
  | Rx_adaptive a ->
      if not (a.ra_alpha > 0. && a.ra_alpha <= 1.) then
        invalid_arg "Nic: ra_alpha must be within (0, 1]";
      if a.ra_hysteresis < 1. then invalid_arg "Nic: ra_hysteresis must be >= 1";
      if a.ra_poll_gap >= a.ra_interrupt_gap then
        invalid_arg "Nic: ra_poll_gap must be below ra_interrupt_gap"
  | Rx_interrupt | Rx_poll | Rx_hybrid -> ()

let poll_period = Time.us 5  (* how often a polling host checks the ring *)

let wasted_polls (mode : mode) ~gap_ps =
  match mode with
  | `Poll -> max 0 ((gap_ps / Time.to_ps poll_period) - 1)
  | `Interrupt | `Hybrid -> 0

let ewma a prev ~gap_ps =
  let g = float_of_int gap_ps in
  match prev with None -> g | Some e -> (a.ra_alpha *. g) +. ((1. -. a.ra_alpha) *. e)

let next_mode a (mode : mode) e : mode =
  let pg = float_of_int (Time.to_ps a.ra_poll_gap) in
  let ig = float_of_int (Time.to_ps a.ra_interrupt_gap) in
  let h = a.ra_hysteresis in
  match mode with
  | `Poll -> if e > pg *. h then if e >= ig then `Interrupt else `Hybrid else `Poll
  | `Interrupt -> if e < ig /. h then if e <= pg then `Poll else `Hybrid else `Interrupt
  | `Hybrid -> if e <= pg then `Poll else if e >= ig then `Interrupt else `Hybrid

let wake_kind (mode : mode) ~waiting =
  match mode with `Hybrid -> if waiting then `Poll else `Interrupt | (`Interrupt | `Poll) as m -> m

(* the [rx-mode] trace payload, and the index of the mode's wakeup counter *)
let mode_index : mode -> int = function `Interrupt -> 0 | `Hybrid -> 1 | `Poll -> 2

(* The engine works on the fabric's frame slots: a wakeup is a chain of
   events of the engine's one stage (registered at [create]) on the slot of
   the frame it wakes, or on slot 0 for a coalesced drain, and [take] turns
   a slot into the fiber that runs its frame's handler. The stage event's
   slot is [4s + step]. *)
type t = {
  eng : Engine.t;
  p : Params.t;
  node : int;
  host : host;
  host_proc : Sync.Semaphore.t;
  take : int -> unit -> unit;
  policy : policy;
  batch : int;
  mutable queue : int array;  (* slots waiting for a coalesced wakeup: a FIFO ring *)
  mutable q_head : int;
  mutable q_len : int;
  mutable armed : bool;  (* a drain is scheduled or under way *)
  mutable last_arrival : Time.t;  (* -1 before the first *)
  mutable gap_ewma : float option;  (* mean interarrival gap, ps *)
  mutable mode : mode;
  s_interrupts : Stats.Counter.t;
  s_polls : Stats.Counter.t;
  s_wasted_polls : Stats.Counter.t;
  s_coalesced : Stats.Counter.t;
  s_mode_switches : Stats.Counter.t;
  s_mode_wakeups : Stats.Counter.t array;  (* by [mode_index] *)
  mutable st : Engine.stage;
}

(* the steps of a wakeup; constant constructors are the ints 0 to 3 *)
type step = Acquired (* the interrupt level came free *) | Interrupted | Polled | Drain

let ev s (step : step) = (4 * s) + Obj.magic step
let at_step t time s step = Engine.at_stage t.eng time t.st (ev s step)

type stats = {
  polls : int; wasted_polls : int; coalesced : int; mode_switches : int;
  mode_interrupt : int; mode_hybrid : int; mode_poll : int;
}

let mode t = t.mode

(* Close the gap since the previous arrival before this frame's wakeup is
   charged, so the wasted polls are those of the mode in force during it. *)
let arrive t =
  let now = Engine.now t.eng in
  let last = t.last_arrival in
  t.last_arrival <- now;
  if last >= Time.zero then begin
    let gap_ps = Time.to_ps now - Time.to_ps last in
    let wasted = wasted_polls t.mode ~gap_ps in
    if wasted > 0 then begin
      Stats.Counter.add t.s_wasted_polls wasted;
      let d = Params.cpu_cycles t.p (wasted * t.p.Params.poll_check_cycles) in
      t.host.overhead d;
      if not (t.host.host_waiting ()) then t.host.steal d
    end;
    match t.policy with
    | Rx_interrupt | Rx_poll | Rx_hybrid -> ()
    | Rx_adaptive a ->
        let e = ewma a t.gap_ewma ~gap_ps in
        t.gap_ewma <- Some e;
        let next = next_mode a t.mode e in
        if next <> t.mode then begin
          t.mode <- next;
          Stats.Counter.incr t.s_mode_switches;
          if Trace.enabled_cat Trace.Nic then
            Trace.emit ~t_ps:(Time.to_ps now) ~node:t.node Trace.Nic ~label:"rx-mode"
              ~payload:(mode_index next)
        end
  end

(* Charge one host wakeup in the current mode, then [woken]. An interrupt
   holds the host's interrupt level for its latency, stolen from a
   computing application. A poll is the host's next ring check: a few
   cycles, stolen too, since a polling host checks the ring even while it
   has work. *)
let rec wake t s =
  Stats.Counter.incr t.s_mode_wakeups.(mode_index t.mode);
  match wake_kind t.mode ~waiting:(t.host.host_waiting ()) with
  | `Interrupt ->
      Stats.Counter.incr t.s_interrupts;
      let latency = t.p.Params.interrupt_latency in
      if latency = Time.zero then interrupted t s
      else if Sync.Semaphore.acquire_stage t.eng t.host_proc t.st (ev s Acquired) then
        at_step t Time.(Engine.now t.eng + latency) s Interrupted
  | `Poll ->
      Stats.Counter.incr t.s_polls;
      let d = Params.cpu_cycles t.p t.p.Params.poll_check_cycles in
      at_step t Time.(Engine.now t.eng + d) s Polled

and interrupted t s =
  if not (t.host.host_waiting ()) then t.host.steal t.p.Params.interrupt_latency;
  woken t s

and polled t s =
  let d = Params.cpu_cycles t.p t.p.Params.poll_check_cycles in
  if not (t.host.host_waiting ()) then begin
    t.host.overhead d;
    t.host.steal d
  end;
  woken t s

(* one frame's own wakeup starts its handler; a drain's starts a batch *)
and woken t s =
  if t.batch = 1 then Engine.start t.eng ~name:"fabric-send" (t.take s)
  else begin
    let n = ref 0 in
    while !n < t.batch && t.q_len > 0 do
      let s = t.queue.(t.q_head) in
      t.q_head <- (t.q_head + 1) land (Array.length t.queue - 1);
      t.q_len <- t.q_len - 1;
      if !n > 0 then Stats.Counter.incr t.s_coalesced;
      incr n;
      Engine.spawn t.eng ~name:"nic-rx-deliver" (t.take s)
    done;
    if t.q_len = 0 then t.armed <- false else wake t 0
  end

let enqueue t s =
  let cap = Array.length t.queue in
  if t.q_len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    t.queue <-
      Array.init ncap (fun i -> if i < t.q_len then t.queue.((t.q_head + i) land (cap - 1)) else 0);
    t.q_head <- 0
  end;
  t.queue.((t.q_head + t.q_len) land (Array.length t.queue - 1)) <- s;
  t.q_len <- t.q_len + 1

let deliver t s =
  arrive t;
  if t.batch > 1 then begin
    enqueue t s;
    if not t.armed then begin
      t.armed <- true;
      at_step t (Engine.now t.eng) 0 Drain
    end
  end
  else wake t s

let create eng p ~node ~host ~host_proc ~interrupts ~counter ~policy ~batch ~take =
  check policy ~batch;
  let t =
    {
      eng; p; node; host; host_proc; take; policy; batch;
      queue = [||]; q_head = 0; q_len = 0; armed = false; last_arrival = -1; gap_ewma = None;
      (* the adaptive policy starts conservatively: interrupts until traffic
         proves hot *)
      mode =
        (match policy with
        | Rx_interrupt | Rx_adaptive _ -> `Interrupt
        | Rx_poll -> `Poll
        | Rx_hybrid -> `Hybrid);
      s_interrupts = interrupts;
      s_polls = counter "polls";
      s_wasted_polls = counter "wasted_polls";
      s_coalesced = counter "rx_coalesced";
      s_mode_switches = counter "rx_mode_switches";
      s_mode_wakeups =
        Array.map counter [| "rx_mode_interrupt_pkts"; "rx_mode_hybrid_pkts"; "rx_mode_poll_pkts" |];
      st = 0;
    }
  in
  t.st <-
    Engine.register eng (fun v ->
        let s = v lsr 2 in
        match (Obj.magic (v land 3) : step) with
        | Acquired -> at_step t Time.(Engine.now eng + p.Params.interrupt_latency) s Interrupted
        | Interrupted ->
            Sync.Semaphore.release host_proc;
            interrupted t s
        | Polled -> polled t s
        | Drain -> wake t s);
  t

let stats t =
  let v = Stats.Counter.value and by_mode = Array.map Stats.Counter.value t.s_mode_wakeups in
  { polls = v t.s_polls; wasted_polls = v t.s_wasted_polls; coalesced = v t.s_coalesced;
    mode_switches = v t.s_mode_switches; mode_interrupt = by_mode.(0);
    mode_hybrid = by_mode.(1); mode_poll = by_mode.(2) }
