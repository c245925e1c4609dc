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

type ('h, 'p) t = {
  eng : Engine.t;
  p : Params.t;
  node : int;
  host : host;
  host_proc : Sync.Semaphore.t;
  run : 'h -> 'p -> unit;
  policy : policy;
  batch : int;
  queue : ('h * 'p) Queue.t;  (* frames waiting for a coalesced wakeup *)
  mutable armed : bool;  (* a drain is scheduled or under way *)
  mutable last_arrival : Time.t option;
  mutable gap_ewma : float option;  (* mean interarrival gap, ps *)
  mutable mode : mode;
  s_interrupts : Stats.Counter.t;
  s_polls : Stats.Counter.t;
  s_wasted_polls : Stats.Counter.t;
  s_coalesced : Stats.Counter.t;
  s_mode_switches : Stats.Counter.t;
  s_mode_wakeups : Stats.Counter.t array;  (* by [mode_index] *)
}

type stats = {
  polls : int; wasted_polls : int; coalesced : int; mode_switches : int;
  mode_interrupt : int; mode_hybrid : int; mode_poll : int;
}

let create eng p ~node ~host ~host_proc ~interrupts ~counter ~policy ~batch ~run =
  check policy ~batch;
  {
    eng; p; node; host; host_proc; run; policy; batch;
    queue = Queue.create (); armed = false; last_arrival = None; gap_ewma = None;
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
  }

let mode t = t.mode

(* Close the gap since the previous arrival before this frame's wakeup is
   charged, so the wasted polls are those of the mode in force during it. *)
let arrive t =
  let now = Engine.now t.eng in
  let last = t.last_arrival in
  t.last_arrival <- Some now;
  match last with
  | None -> ()
  | Some last -> (
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
          end)

(* Charge one host wakeup in the current mode, then [k]. An interrupt holds
   the host's interrupt level for its latency, stolen from a computing
   application. A poll is the host's next ring check: a few cycles, stolen
   too, since a polling host checks the ring even while it has work. *)
let wake t k =
  Stats.Counter.incr t.s_mode_wakeups.(mode_index t.mode);
  match wake_kind t.mode ~waiting:(t.host.host_waiting ()) with
  | `Interrupt ->
      Stats.Counter.incr t.s_interrupts;
      let latency = t.p.Params.interrupt_latency in
      Sync.Semaphore.hold_then t.eng t.host_proc latency (fun () ->
          if not (t.host.host_waiting ()) then t.host.steal latency;
          k ())
  | `Poll ->
      Stats.Counter.incr t.s_polls;
      let d = Params.cpu_cycles t.p t.p.Params.poll_check_cycles in
      Engine.after t.eng d (fun () ->
          if not (t.host.host_waiting ()) then begin
            t.host.overhead d;
            t.host.steal d
          end;
          k ())

let rec drain t =
  wake t (fun () ->
      let n = ref 0 in
      while !n < t.batch && not (Queue.is_empty t.queue) do
        let h, p = Queue.pop t.queue in
        if !n > 0 then Stats.Counter.incr t.s_coalesced;
        incr n;
        Engine.spawn t.eng ~name:"nic-rx-deliver" (fun () -> t.run h p)
      done;
      if Queue.is_empty t.queue then t.armed <- false else drain t)

let deliver t h p =
  arrive t;
  if t.batch > 1 then begin
    Queue.push (h, p) t.queue;
    if not t.armed then begin
      t.armed <- true;
      Engine.at t.eng (Engine.now t.eng) (fun () -> drain t)
    end
  end
  else wake t (fun () -> Engine.start t.eng ~name:"fabric-send" (fun () -> t.run h p))

let stats t =
  let v = Stats.Counter.value and by_mode = Array.map Stats.Counter.value t.s_mode_wakeups in
  { polls = v t.s_polls; wasted_polls = v t.s_wasted_polls; coalesced = v t.s_coalesced;
    mode_switches = v t.s_mode_switches; mode_interrupt = by_mode.(0);
    mode_hybrid = by_mode.(1); mode_poll = by_mode.(2) }
