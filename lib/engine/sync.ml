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
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { count; waiters = Queue.create () }

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let acquire_then eng t k =
    if try_acquire t then k ()
    else Queue.add (fun () -> Engine.at eng (Engine.now eng) k) t.waiters

  let acquire t = Engine.await (fun eng k -> acquire_then eng t k)

  let release t =
    match Queue.take_opt t.waiters with
    | Some wake -> wake ()
    | None -> t.count <- t.count + 1

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
  let waiting t = Queue.length t.waiters
end
