module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Stats = Cni_engine.Stats

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  space : Sync.Semaphore.t;
  items : Sync.Semaphore.t;
  s_pushes : Stats.Counter.t;
  s_pops : Stats.Counter.t;
  s_full_stalls : Stats.Counter.t;
  s_empty_stalls : Stats.Counter.t;
}

type stats = { pushes : int; pops : int; full_stalls : int; empty_stalls : int }

let create ?registry ?node ?(subsystem = "ring") ~slots () =
  if slots < 1 then invalid_arg "Ring.create: need at least one slot";
  let counter name =
    match registry with
    | Some reg -> Stats.Registry.counter reg ?node ~subsystem name
    | None -> Stats.Counter.create name
  in
  {
    capacity = slots;
    q = Queue.create ();
    space = Sync.Semaphore.create slots;
    items = Sync.Semaphore.create 0;
    s_pushes = counter "pushes";
    s_pops = counter "pops";
    s_full_stalls = counter "full_stalls";
    s_empty_stalls = counter "empty_stalls";
  }

let slots t = t.capacity
let length t = Queue.length t.q
let is_full t = Queue.length t.q >= t.capacity
let is_empty t = Queue.is_empty t.q

let try_push t v =
  if Sync.Semaphore.try_acquire t.space then begin
    Queue.add v t.q;
    Stats.Counter.incr t.s_pushes;
    Sync.Semaphore.release t.items;
    true
  end
  else false

let try_pop t =
  if Sync.Semaphore.try_acquire t.items then begin
    let v = Queue.take t.q in
    Stats.Counter.incr t.s_pops;
    Sync.Semaphore.release t.space;
    Some v
  end
  else None

let push_then eng t v k =
  if Sync.Semaphore.available t.space = 0 then Stats.Counter.incr t.s_full_stalls;
  Sync.Semaphore.acquire_then eng t.space (fun () ->
      Queue.add v t.q;
      Stats.Counter.incr t.s_pushes;
      Sync.Semaphore.release t.items;
      k ())

let pop_then eng t k =
  if Sync.Semaphore.available t.items = 0 then Stats.Counter.incr t.s_empty_stalls;
  Sync.Semaphore.acquire_then eng t.items (fun () ->
      let v = Queue.take t.q in
      Stats.Counter.incr t.s_pops;
      Sync.Semaphore.release t.space;
      k v)

let push t v = Engine.await (fun eng k -> push_then eng t v k)
let pop t = Engine.await (fun eng k -> pop_then eng t k)

let stats t =
  {
    pushes = Stats.Counter.value t.s_pushes;
    pops = Stats.Counter.value t.s_pops;
    full_stalls = Stats.Counter.value t.s_full_stalls;
    empty_stalls = Stats.Counter.value t.s_empty_stalls;
  }
