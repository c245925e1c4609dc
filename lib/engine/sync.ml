module Ivar = struct
  type 'a state = Empty of ('a -> unit) Queue.t | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty (Queue.create ()) }

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters -> Engine.suspend (fun resume -> Queue.add resume waiters)

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        t.state <- Full v;
        Queue.iter (fun resume -> resume v) waiters

  let peek t = match t.state with Full v -> Some v | Empty _ -> None
end

module Semaphore = struct
  (* [eng] is the engine the waiters wait on, set by the first wait; until
     then it is a placeholder that nothing reads ([Engine.wake] of an empty
     queue does not look at its engine; see [Heap.dummy]) *)
  type t = { mutable count : int; mutable eng : Engine.t; waiters : Engine.queue }

  let create count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { count; eng = Obj.magic 0; waiters = Engine.queue () }

  let[@inline] try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let bind eng t = if t.eng != eng then t.eng <- eng

  let acquire_stage eng t stage slot =
    try_acquire t
    || begin
      bind eng t;
      Engine.wait_stage eng t.waiters stage slot;
      false
    end

  let acquire_then eng t k =
    if try_acquire t then k ()
    else begin
      bind eng t;
      Engine.wait_stage eng t.waiters Engine.closure_stage (Engine.hold eng k)
    end

  let acquire t = Engine.await (fun eng k -> acquire_then eng t k)

  (* the woken waiter runs in an event of its own at this instant *)
  let release t = if not (Engine.wake t.eng t.waiters) then t.count <- t.count + 1

  (* a free unit is taken inline: only the release closure is built *)
  let hold_then eng t d k =
    if d > Time.zero then begin
      let held () =
        release t;
        k ()
      in
      if try_acquire t then Engine.after eng d held
      else acquire_then eng t (fun () -> Engine.after eng d held)
    end
    else k ()

  let available t = t.count
  let waiting t = Engine.waiting t.waiters
end
