type run_stats = {
  events_dispatched : int;
  max_heap_depth : int;
  past_clamps : int;
}

(* Two queues hold the pending events. Events due at a later time go in
   the calendar queue, ordered by (time, scheduling order). Events
   scheduled {e at} the current time — spawns, fiber resumes, clamped [at]
   calls — go on the lane, a FIFO ring beside it.

   Dispatch still follows the exact (time, scheduling order) the calendar
   alone would give. The clock never runs backwards, so every queued event
   keyed [now] was scheduled while the clock was still short of [now],
   before any lane event (which was scheduled at [now]); and every lane
   event precedes any queued event keyed later. So: first the queued
   events keyed [now], then the lane, then the clock advances. *)
type t = {
  mutable now : Time.t;
  q : (unit -> unit) Calendar.t;
  mutable lane : (unit -> unit) array;  (* ring buffer, power-of-two length *)
  mutable lane_head : int;
  mutable lane_len : int;
  mutable seq : int;
  mutable dispatched : int;
  mutable max_depth : int;
  mutable clamped : int;
  (* A fiber performs [delay] on most simulated steps, so its effect
     handler is built once per engine, not once per perform or per fiber.
     [delay_by] carries the performed duration to [on_delay], which runs
     right after the fiber's [effc] returns it. *)
  mutable delay_by : Time.t;
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable awaiting : string;  (* the fiber whose [await] is beginning *)
}

exception Fiber_failure of string * exn

(* what a vacated lane slot holds, so the ring never pins a run event *)
let vacant () = ()

let now t = t.now
let pending t = Calendar.length t.q + t.lane_len

let run_stats t =
  { events_dispatched = t.dispatched; max_heap_depth = t.max_depth; past_clamps = t.clamped }

let lane_push t f =
  let cap = Array.length t.lane in
  if t.lane_len = cap then begin
    (* unroll the ring into a twice-as-long one, head first *)
    let lane = Array.make (2 * cap) vacant in
    let first = cap - t.lane_head in
    Array.blit t.lane t.lane_head lane 0 first;
    Array.blit t.lane 0 lane first t.lane_head;
    t.lane <- lane;
    t.lane_head <- 0
  end;
  let lane = t.lane in
  lane.((t.lane_head + t.lane_len) land (Array.length lane - 1)) <- f;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let lane = t.lane and head = t.lane_head in
  let f = lane.(head) in
  lane.(head) <- vacant;
  t.lane_head <- (head + 1) land (Array.length lane - 1);
  t.lane_len <- t.lane_len - 1;
  f

let at t time f =
  (* Scheduling into the past is clamped to [now] so time never runs
     backwards, but silently losing the requested time hides protocol bugs:
     count every clamp and leave a trace record of how far back the caller
     aimed. *)
  if time <= t.now then begin
    if time < t.now then begin
      t.clamped <- t.clamped + 1;
      if Trace.enabled_cat Trace.Engine then
        Trace.emit ~t_ps:(Time.to_ps t.now) ~node:(-1) Trace.Engine ~label:"past-clamp"
          ~payload:(Time.to_ps t.now - Time.to_ps time)
    end;
    lane_push t f
  end
  else begin
    let seq = t.seq in
    t.seq <- seq + 1;
    Calendar.add t.q ~key:(Time.to_ps time) ~seq f
  end;
  let depth = pending t in
  if depth > t.max_depth then t.max_depth <- depth

let after t d f = at t Time.(t.now + d) f

let create () =
  let rec t =
    {
      now = Time.zero;
      q = Calendar.create ();
      lane = Array.make 64 vacant;
      lane_head = 0;
      lane_len = 0;
      seq = 0;
      dispatched = 0;
      max_depth = 0;
      clamped = 0;
      delay_by = Time.zero;
      on_delay = Some (fun k -> after t t.delay_by (fun () -> Effect.Deep.continue k ()));
      awaiting = "";
    }
  in
  t

(* the time of the next event; [pending t > 0] *)
let next_time t = if t.lane_len > 0 then Time.to_ps t.now else Calendar.min_key t.q

let step t =
  let f =
    if t.lane_len > 0 && not (Calendar.has_key_at_most t.q (Time.to_ps t.now)) then
      lane_pop t
    else begin
      t.now <- Time.ps (Calendar.min_key t.q);
      Calendar.pop_min_value t.q
    end
  in
  t.dispatched <- t.dispatched + 1;
  if Trace.enabled_cat Trace.Engine then
    Trace.emit ~t_ps:(Time.to_ps t.now) ~node:(-1) Trace.Engine ~label:"event"
      ~payload:(pending t);
  f ()

let run t =
  while pending t > 0 do
    step t
  done

let run_until t limit =
  while pending t > 0 && next_time t <= Time.to_ps limit do
    step t
  done

exception
  Quiescence_timeout of { limit : Time.t; now : Time.t; pending : int }

let () =
  Printexc.register_printer (function
    | Quiescence_timeout { limit; now; pending } ->
        Some
          (Printf.sprintf
             "Engine.Quiescence_timeout: %d event(s) still pending past the \
              %.3f us watchdog limit (last dispatched event at %.3f us)"
             pending (Time.to_us_float limit) (Time.to_us_float now))
    | _ -> None)

let run_watched t ~limit =
  run_until t limit;
  if pending t > 0 then raise (Quiescence_timeout { limit; now = t.now; pending = pending t })

(* ------------------------------------------------------------------ *)
(* Fibers                                                             *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Delay : Time.t -> unit Effect.t
  | Await : (t -> ('a -> unit) -> unit) -> 'a Effect.t

let delay d = Effect.perform (Delay d)
let await begin_ = Effect.perform (Await begin_)

(* the resume goes through the lane: the fiber continues in an event of its own *)
let suspend register =
  await (fun t continue_ ->
      let name = t.awaiting and resumed = ref false in
      register (fun v ->
          if !resumed then invalid_arg (Printf.sprintf "Engine: fiber %S resumed twice" name);
          resumed := true;
          at t t.now (fun () -> continue_ v)))

let handler t name =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc =
      (fun e ->
        match e with
        | Fiber_failure _ -> raise e
        | _ -> raise (Fiber_failure (name ^ ": " ^ Printexc.to_string e, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Delay d ->
            t.delay_by <- d;
            (t.on_delay : ((a, unit) continuation -> unit) option)
        | Await begin_ ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* resumed inside the event that completes the operation *)
                let resumed = ref false in
                t.awaiting <- name;
                try begin_ t (fun v -> resumed := true; continue k v)
                with e when not !resumed -> discontinue k e)
        | _ -> None);
  }

let start t ?(name = "fiber") f = Effect.Deep.match_with f () (handler t name)
let spawn t ?name f = at t t.now (fun () -> start t ?name f)
