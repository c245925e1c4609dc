module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Stats = Cni_engine.Stats

(* The entries sit in a fixed array of [capacity] cells, [len] of them from
   [head]; the two semaphores count free cells and entries, and are the
   ring's one waiting mechanism, for stage and fiber waiters alike. *)
type 'a t = {
  capacity : int;
  cells : 'a array;
  mutable head : int;
  mutable len : int;
  space : Sync.Semaphore.t;
  items : Sync.Semaphore.t;
  s_pushes : Stats.Counter.t;
  s_pops : Stats.Counter.t;
  s_full_stalls : Stats.Counter.t;
  s_empty_stalls : Stats.Counter.t;
}

type stats = { pushes : int; pops : int; full_stalls : int; empty_stalls : int }

(* what a free cell holds, so the ring never pins a popped entry; never
   read (see [Heap.dummy]) *)
let dummy () : 'a = Obj.magic 0

let create ?registry ?node ?(subsystem = "ring") ~slots () =
  if slots < 1 then invalid_arg "Ring.create: need at least one slot";
  let counter name =
    match registry with
    | Some reg -> Stats.Registry.counter reg ?node ~subsystem name
    | None -> Stats.Counter.create name
  in
  {
    capacity = slots;
    cells = Array.make slots (dummy ());
    head = 0;
    len = 0;
    space = Sync.Semaphore.create slots;
    items = Sync.Semaphore.create 0;
    s_pushes = counter "pushes";
    s_pops = counter "pops";
    s_full_stalls = counter "full_stalls";
    s_empty_stalls = counter "empty_stalls";
  }

let slots t = t.capacity
let length t = t.len
let is_full t = t.len >= t.capacity
let is_empty t = t.len = 0

let put t v =
  t.cells.((t.head + t.len) mod t.capacity) <- v;
  t.len <- t.len + 1;
  Stats.Counter.incr t.s_pushes;
  Sync.Semaphore.release t.items

let take t =
  let v = t.cells.(t.head) in
  t.cells.(t.head) <- dummy ();
  t.head <- (t.head + 1) mod t.capacity;
  t.len <- t.len - 1;
  Stats.Counter.incr t.s_pops;
  Sync.Semaphore.release t.space;
  v

let try_push t v =
  Sync.Semaphore.try_acquire t.space
  && begin
    put t v;
    true
  end

let try_pop t = if Sync.Semaphore.try_acquire t.items then Some (take t) else None

let reserve eng t stage slot =
  if Sync.Semaphore.available t.space = 0 then Stats.Counter.incr t.s_full_stalls;
  Sync.Semaphore.acquire_stage eng t.space stage slot

let claim eng t stage slot =
  if Sync.Semaphore.available t.items = 0 then Stats.Counter.incr t.s_empty_stalls;
  Sync.Semaphore.acquire_stage eng t.items stage slot

let push t v =
  Engine.await (fun eng k ->
      if Sync.Semaphore.available t.space = 0 then Stats.Counter.incr t.s_full_stalls;
      Sync.Semaphore.acquire_then eng t.space (fun () ->
          put t v;
          k ()))

let pop t =
  Engine.await (fun eng k ->
      if Sync.Semaphore.available t.items = 0 then Stats.Counter.incr t.s_empty_stalls;
      Sync.Semaphore.acquire_then eng t.items (fun () -> k (take t)))

let stats t =
  {
    pushes = Stats.Counter.value t.s_pushes;
    pops = Stats.Counter.value t.s_pops;
    full_stalls = Stats.Counter.value t.s_full_stalls;
    empty_stalls = Stats.Counter.value t.s_empty_stalls;
  }
