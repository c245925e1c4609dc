(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and dispatches events in (time,
    scheduling order): ties are broken in FIFO order so runs are fully
    deterministic. Simulated processes ("fibers") are ordinary OCaml
    functions that perform two effects, {!delay} and {!await}, handled by
    the engine ({!suspend} is built on {!await}) — OCaml 5 effect handlers
    give us cheap one-shot continuations, the same role Proteus' threads
    played in the paper's evaluation.

    Pending events sit in two queues. Events due later than {!now} wait in
    a {!Calendar} queue. Events scheduled {e at} {!now} — spawns, fiber
    resumes and clamped {!at} calls — go to a FIFO {e lane} beside it. The
    lane keeps the exact (time, scheduling order): queued events keyed
    {!now} were all scheduled before the clock reached {!now}, so they run
    first, then the lane, and only then does the clock advance. *)

type t

val create : unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** Counters accumulated over the engine's lifetime (never reset). *)
type run_stats = {
  events_dispatched : int;  (** events popped and executed so far *)
  max_heap_depth : int;
      (** high-water mark of the pending events, queued and same-instant lane
          together (see {!pending}) *)
  past_clamps : int;
      (** [at] calls whose requested time lay in the past and was clamped to
          [now] — nonzero values usually indicate a protocol bug in the
          caller (see {!at}) *)
  digest : int;
      (** a 63-bit rolling hash of every dispatched event's time and
          scheduling order (a queued event's seq, a lane event's position
          in the lane's push order): two runs that dispatch the same events
          in the same order have the same digest, and a run that moves one
          event by a picosecond almost surely does not *)
}

val run_stats : t -> run_stats

(** [at t time f] schedules [f] to run at absolute [time] (>= [now t]): a
    {!closure_stage} event on [hold t f]. A [time] earlier than [now t] is
    clamped to [now t] (time never runs backwards); each clamp increments
    {!run_stats}[.past_clamps] and, when the [Engine] trace category is
    enabled, emits a ["past-clamp"] record whose payload is the clamped
    distance in picoseconds. *)
val at : t -> Time.t -> (unit -> unit) -> unit

(** [after t d f] schedules [f] to run [d] after the current time. *)
val after : t -> Time.t -> (unit -> unit) -> unit

(** {2 Stage events}

    Every event is a {e stage event}. A fixed pipeline step (a board or
    wire stage of a frame) is a {e stage}: a handler registered once, run
    on a {e slot} — the index of the caller's pooled record of the item it
    works on. The pair (stage, slot) packs into the one int code that the
    calendar, the same-instant lane and the waiter queues hold, so
    scheduling one allocates nothing and stores no pointer. A closure
    ({!at}, {!after}) is an event of {!closure_stage} on its {!hold}
    slot. *)

type stage = int

(** The engine's own stage: an event on slot [s] frees [s], then runs the
    closure {!hold} put there. *)
val closure_stage : stage

(** [hold t f] puts [f] in a free slot of {!closure_stage}, for one event
    to run, and returns the slot. It schedules nothing and takes no seq. *)
val hold : t -> (unit -> unit) -> int

(** [register t f] makes [f] a stage of [t]: a stage event on slot [s]
    runs [f s]. Register once per owner (a board, a fabric), not per item.
    @raise Failure past 2^20 stages. *)
val register : t -> (int -> unit) -> stage

(** [at_stage t time stage slot] schedules a stage event, as {!at} does a
    closure (a past [time] is clamped and counted alike).
    @raise Invalid_argument on a negative [slot]. *)
val at_stage : t -> Time.t -> stage -> int -> unit

(** [after_stage t d stage slot] is {!at_stage} at [now t + d]. *)
val after_stage : t -> Time.t -> stage -> int -> unit

(** [run_stage t stage slot] runs the stage inside the current event, as a
    callback continuation runs on. *)
val run_stage : t -> stage -> int -> unit

(** {2 Waiter queues}

    A resource's FIFO of waiters ({!Sync.Semaphore}'s), each a stage
    event's code. The queues of an engine keep their waiters in one pool
    of int nodes, sized to the peak number of waiters on the engine, so a
    waiter waits without allocating. *)

type queue

val queue : unit -> queue

(** [wait_stage t q stage slot] queues the stage event (stage, slot). *)
val wait_stage : t -> queue -> stage -> int -> unit

(** [wake t q] takes the oldest waiter off [q] and schedules it at [now t]
    (on the lane); [false] when [q] is empty. *)
val wake : t -> queue -> bool

val waiting : queue -> int

(** Number of pending events (including suspended-fiber wakeups), in the
    calendar queue and the same-instant lane together. *)
val pending : t -> int

(** Run until the event queue is empty. *)
val run : t -> unit

(** Run all events with time <= [limit], and nothing later. The clock stays
    at the last dispatched event: with events at 10, 20, 30 and 40 ns,
    [run_until t (ns 25)] leaves [now t] at 20 ns, not at the limit. A limit
    below [now t] dispatches nothing, not even events scheduled at [now t]. *)
val run_until : t -> Time.t -> unit

(** Raised by {!run_watched} when events remain past the limit: the
    simulation is still making "progress" (self-rearming timers, a livelocked
    retry loop) but never drains. [now] is the last dispatched event's time
    (see {!run_until}) and [pending] is {!pending}. A printer is
    registered. *)
exception
  Quiescence_timeout of { limit : Time.t; now : Time.t; pending : int }

(** [run_watched t ~limit] is a quiescence watchdog around {!run_until}:
    it runs every event up to [limit] and raises {!Quiescence_timeout} if
    the queue is still non-empty afterwards, turning a would-be hang into a
    diagnosable failure. (An {e empty} queue with unfinished fibers is the
    caller's deadlock to detect — the engine cannot see suspended fibers.) *)
val run_watched : t -> limit:Time.t -> unit

(** {2 Fibers}

    The functions below must be called from inside a fiber spawned with
    {!spawn} (directly or transitively); calling them elsewhere raises
    [Effect.Unhandled]. *)

(** [spawn t f] creates a simulated process running [f], started at the
    current simulated time. An exception escaping [f] aborts the whole
    simulation (it propagates out of {!run}), annotated with the fiber name. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** [start t f] runs [f] as a fiber inside the current event, until it first
    waits or returns, where {!spawn} schedules an event to begin it.
    Exceptions escaping [f] are annotated as for {!spawn}. *)
val start : t -> ?name:string -> (unit -> unit) -> unit

(** Advance this fiber's virtual time by the given duration. *)
val delay : Time.t -> unit

(** [suspend register] blocks the calling fiber; [register] receives a
    one-shot [resume] function which, when called (from any event context),
    reschedules the fiber at the then-current simulated time with the given
    value. Calling [resume] twice raises [Invalid_argument]. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [await begin_] blocks the calling fiber on an operation in callback
    form (an acquire, a DMA): [begin_ eng resume] starts it, and it calls
    [resume v] from the event that completes it. The fiber continues right
    there, with no event of its own (unlike {!suspend}), so a fiber form
    over a callback form dispatches the same events. An exception [begin_]
    raises before resuming is raised in the fiber. *)
val await : (t -> ('a -> unit) -> unit) -> 'a

(** Exception escaping a fiber, annotated with the fiber name. *)
exception Fiber_failure of string * exn
