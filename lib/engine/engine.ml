type run_stats = {
  events_dispatched : int;
  max_heap_depth : int;
  past_clamps : int;
  digest : int;
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
   events keyed [now], then the lane, then the clock advances.

   An event is a stage event: a registered stage and a slot, packed into
   one int code, [slot lsl stage_bits lor stage]. The calendar, the lane
   and the waiter queues hold only these codes. A closure is an event of
   stage 0, the engine's own: [hold] puts it in [closures] at a slot of
   [held], and stage 0 takes it out of that slot and runs it. *)
type t = {
  mutable now : Time.t;
  q : Calendar.t;
  mutable lane : int array;  (* ring buffer of codes, power-of-two length *)
  mutable lane_head : int;
  mutable lane_len : int;
  mutable seq : int;
  mutable dispatched : int;
  mutable max_depth : int;
  mutable clamped : int;
  mutable lane_popped : int;  (* lane events dispatched: the next one's push position *)
  mutable digest : int;
  mutable stages : (int -> unit) array;  (* by stage id *)
  mutable nstages : int;
  held : Pool.t;  (* the slots of stage 0 *)
  mutable closures : (unit -> unit) array;  (* by slot of [held] *)
  (* the nodes of every waiter queue on this engine, a pool sized to the
     peak number of waiters: each holds the code it wakes *)
  mutable w_code : int array;
  mutable w_link : int array;  (* next node in its queue, or in the free list *)
  mutable w_free : int;
  (* A fiber performs [delay] on most simulated steps, so its effect
     handler is built once per engine, not once per perform or per fiber.
     [delay_by] carries the performed duration to [on_delay], which runs
     right after the fiber's [effc] returns it. *)
  mutable delay_by : Time.t;
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable awaiting : string;  (* the fiber whose [await] is beginning *)
}

exception Fiber_failure of string * exn

(* a free slot of [closures], so the table never pins a run closure *)
let vacant () = ()

let now t = t.now
let pending t = Calendar.length t.q + t.lane_len

let run_stats t =
  { events_dispatched = t.dispatched; max_heap_depth = t.max_depth; past_clamps = t.clamped;
    digest = t.digest }

(* One multiply-add per event folds its time and its scheduling order: a
   queued event's seq, or a lane event's push position, complemented so the
   two orders stay apart. A multiplier below 2^62 keeps the fold inside
   OCaml's 63-bit ints, where it wraps deterministically. *)
let digest_prime = 0x100000001b3

let fold t ~order = t.digest <- ((t.digest + Time.to_ps t.now) * digest_prime) + order

(* the lane index the next push writes *)
let lane_tail t =
  let cap = Array.length t.lane in
  if t.lane_len = cap then begin
    (* unroll the ring into a twice-as-long one, head first *)
    let unroll ring fill =
      let a = Array.make (2 * cap) fill in
      let first = cap - t.lane_head in
      Array.blit ring t.lane_head a 0 first;
      Array.blit ring 0 a first t.lane_head;
      a
    in
    t.lane <- unroll t.lane 0;
    t.lane_head <- 0
  end;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane - 1) in
  t.lane_len <- t.lane_len + 1;
  i

(* Scheduling into the past is clamped to [now] so time never runs
   backwards, but silently losing the requested time hides protocol bugs:
   count every clamp and leave a trace record of how far back the caller
   aimed. [true]: the event goes on the lane. *)
let due_now t time =
  if time <= t.now then begin
    if time < t.now then begin
      t.clamped <- t.clamped + 1;
      if Trace.enabled_cat Trace.Engine then
        Trace.emit ~t_ps:(Time.to_ps t.now) ~node:(-1) Trace.Engine ~label:"past-clamp"
          ~payload:(Time.to_ps t.now - Time.to_ps time)
    end;
    true
  end
  else false

let[@inline] next_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let[@inline] note_depth t =
  let depth = pending t in
  if depth > t.max_depth then t.max_depth <- depth

(* ------------------------------------------------------------------ *)
(* Stage events                                                       *)
(* ------------------------------------------------------------------ *)

type stage = int

(* 2^20 stages; the slot takes the code's other 42 bits *)
let stage_bits = 20
let stage_mask = (1 lsl stage_bits) - 1

let register t f =
  let id = t.nstages in
  if id > stage_mask then failwith "Engine.register: too many stages";
  if id = Array.length t.stages then begin
    let a = Array.make (max 16 (2 * id)) ignore in
    Array.blit t.stages 0 a 0 id;
    t.stages <- a
  end;
  t.stages.(id) <- f;
  t.nstages <- id + 1;
  id

let run_stage t stage slot = t.stages.(stage) slot

let[@inline] code_of stage slot =
  if slot < 0 then invalid_arg "Engine.at_stage: negative slot";
  (slot lsl stage_bits) lor stage

let at_code t time code =
  if due_now t time then t.lane.(lane_tail t) <- code
  else Calendar.add t.q ~key:(Time.to_ps time) ~seq:(next_seq t) code;
  note_depth t

let at_stage t time stage slot = at_code t time (code_of stage slot)
let after_stage t d stage slot = at_stage t Time.(t.now + d) stage slot

(* registered first by [create] *)
let closure_stage = 0

let hold t f =
  let s = Pool.alloc t.held in
  if s >= Array.length t.closures then
    t.closures <- Pool.extend t.closures (Pool.capacity t.held) vacant;
  t.closures.(s) <- f;
  s

(* the slot is free before the closure runs: one that raises leaks no
   slot, and one that has run is not kept alive *)
let run_held t s =
  let f = t.closures.(s) in
  t.closures.(s) <- vacant;
  Pool.release t.held s;
  f ()

let at t time f = at_code t time (code_of closure_stage (hold t f))
let after t d f = at t Time.(t.now + d) f

(* ------------------------------------------------------------------ *)
(* Waiter queues                                                      *)
(* ------------------------------------------------------------------ *)

type queue = { mutable head : int; mutable tail : int; mutable len : int }

let queue () = { head = -1; tail = -1; len = 0 }
let waiting q = q.len

let waiter t q =
  if t.w_free < 0 then begin
    let cap = Array.length t.w_code in
    let ncap = if cap = 0 then 16 else 2 * cap in
    t.w_code <- Pool.extend t.w_code ncap 0;
    t.w_link <-
      Array.init ncap (fun n ->
          if n < cap then t.w_link.(n) else if n = ncap - 1 then -1 else n + 1);
    t.w_free <- cap
  end;
  let n = t.w_free in
  t.w_free <- t.w_link.(n);
  t.w_link.(n) <- -1;
  if q.tail < 0 then q.head <- n else t.w_link.(q.tail) <- n;
  q.tail <- n;
  q.len <- q.len + 1;
  n

let wait_stage t q stage slot =
  let code = code_of stage slot in
  t.w_code.(waiter t q) <- code

let wake t q =
  q.len > 0
  && begin
    let n = q.head in
    q.head <- t.w_link.(n);
    if q.head < 0 then q.tail <- -1;
    q.len <- q.len - 1;
    t.w_link.(n) <- t.w_free;
    t.w_free <- n;
    (* at [now]: a lane push, as [at_stage] would make it *)
    t.lane.(lane_tail t) <- t.w_code.(n);
    note_depth t;
    true
  end

let create () =
  let rec t =
    {
      now = Time.zero;
      q = Calendar.create ();
      lane = Array.make 64 0;
      lane_head = 0;
      lane_len = 0;
      seq = 0;
      dispatched = 0;
      max_depth = 0;
      clamped = 0;
      lane_popped = 0;
      digest = 0;
      stages = [||];
      nstages = 0;
      held = Pool.create ();
      closures = [||];
      w_code = [||];
      w_link = [||];
      w_free = -1;
      delay_by = Time.zero;
      on_delay = Some (fun k -> after t t.delay_by (fun () -> Effect.Deep.continue k ()));
      awaiting = "";
    }
  in
  ignore (register t (run_held t) : stage);
  t

(* the time of the next event; [pending t > 0] *)
let next_time t = if t.lane_len > 0 then Time.to_ps t.now else Calendar.min_key t.q

let[@inline] dispatch t code =
  t.dispatched <- t.dispatched + 1;
  if Trace.enabled_cat Trace.Engine then
    Trace.emit ~t_ps:(Time.to_ps t.now) ~node:(-1) Trace.Engine ~label:"event"
      ~payload:(pending t);
  t.stages.(code land stage_mask) (code lsr stage_bits)

let step t =
  if t.lane_len > 0 && not (Calendar.has_key_at_most t.q (Time.to_ps t.now)) then begin
    fold t ~order:(lnot t.lane_popped);
    t.lane_popped <- t.lane_popped + 1;
    let head = t.lane_head in
    let code = t.lane.(head) in
    t.lane_head <- (head + 1) land (Array.length t.lane - 1);
    t.lane_len <- t.lane_len - 1;
    dispatch t code
  end
  else begin
    t.now <- Time.ps (Calendar.min_key t.q);
    let code = Calendar.pop_min_value t.q in
    fold t ~order:(Calendar.last_seq t.q);
    dispatch t code
  end

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
