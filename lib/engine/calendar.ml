(* Calendar queue (Brown, CACM 1988) on integer keys, ordered by
   (key, seq).

   Keys are cut into buckets of [2^shift] ps. The [nbuckets] buckets after
   the cursor's form the window; an event inside it sits in its bucket's
   list, and a bitmap marks the non-empty buckets. An event past the window
   waits in a binary [Heap] ([far]) and moves into its bucket when the
   window reaches it. The cursor's own bucket is taken out of its list and
   kept as a {e run}: its nodes sorted by (key, seq), popped from the front.

   Order is exact. Every list event lies in a bucket after the cursor's,
   every far event past the window, and the run (or, for a dense bucket,
   the top of [far]) holds the rest, so its head is the minimum. A key at
   or below the cursor's bucket joins the run at its sorted place: that is
   the case of a key scheduled below the cursor after {!min_key} moved it
   past the clock, and it still pops first.

   A bucket with more than [dense_limit] events is not sorted: its events
   go into [far], whose top they then are, and the bucket is popped from
   there, O(log n) per operation whatever the burst.

   An event is an int code (the engine's (stage, slot)). Events inside the
   window live in a node pool of int columns for key, seq, code and the
   list link, so no add or pop stores a pointer; the link column doubles as
   the free list. *)

(* Bucket width 2^18 ps = 262 ns: the simulator's delays cluster on the
   fabric and board constants (tens of ns to a few us), so a bucket holds a
   few events when the cursor reaches it. 1,024 buckets (a 32-word bitmap)
   make a 268 us window, which holds every delay but the 1 ms retransmit
   timeout; those timers wait in [far]. Narrower buckets would shrink the
   window for the same bitmap, and bought nothing in a replay of recorded
   event logs. *)
let shift = 18
let nbuckets = 1024
let mask = nbuckets - 1

(* above this occupancy a bucket is popped from [far], not sorted: sorting
   and in-place inserts cost O(n) per event in a run of n *)
let dense_limit = 64

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable codes : int array;
  mutable links : int array;  (* next node in the bucket's list, or in the free list *)
  mutable free : int;  (* first free node, -1 when the pool is full *)
  heads : int array;  (* first node of each bucket's list, -1 when empty *)
  bits : int array;  (* bucket [i] non-empty: bit [i land 31] of word [i lsr 5] *)
  mutable summary : int;  (* bit [w]: word [w] of [bits] is non-zero *)
  mutable cur : int;  (* absolute bucket ([key lsr shift]) under the cursor *)
  mutable run : int array;  (* the cursor bucket's nodes, sorted from [pos] to [len] *)
  mutable pos : int;
  mutable len : int;
  mutable dense : bool;  (* the cursor bucket's events are in [far] *)
  far : int Heap.t;
  mutable size : int;
  mutable last_seq : int;  (* of the element [pop_min_value] took last *)
}

let create () =
  {
    keys = [||];
    seqs = [||];
    codes = [||];
    links = [||];
    free = -1;
    heads = Array.make nbuckets (-1);
    bits = Array.make (nbuckets / 32) 0;
    summary = 0;
    cur = 0;
    run = Array.make 16 0;
    pos = 0;
    len = 0;
    dense = false;
    far = Heap.create ();
    size = 0;
    last_seq = 0;
  }

let length q = q.size

(* ------------------------------------------------------------------ *)
(* Node pool                                                           *)
(* ------------------------------------------------------------------ *)

let grow q =
  let cap = Array.length q.keys in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.keys <- extend q.keys 0;
  q.seqs <- extend q.seqs 0;
  q.codes <- extend q.codes 0;
  let links = extend q.links 0 in
  for n = cap to ncap - 2 do
    links.(n) <- n + 1
  done;
  links.(ncap - 1) <- -1;
  q.links <- links;
  q.free <- cap

let[@inline] alloc q ~key ~seq code =
  if q.free < 0 then grow q;
  let n = q.free in
  q.free <- q.links.(n);
  q.keys.(n) <- key;
  q.seqs.(n) <- seq;
  q.codes.(n) <- code;
  n

let release q n =
  q.last_seq <- q.seqs.(n);
  q.links.(n) <- q.free;
  q.free <- n;
  q.codes.(n)

let before q a b =
  let ka = q.keys.(a) and kb = q.keys.(b) in
  ka < kb || (ka = kb && q.seqs.(a) < q.seqs.(b))

(* ------------------------------------------------------------------ *)
(* Bucket lists and the bitmap                                         *)
(* ------------------------------------------------------------------ *)

(* bit index of the lowest set bit of a non-zero 32-bit [x] (de Bruijn) *)
let debruijn = "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let ctz32 x =
  Char.code (String.unsafe_get debruijn ((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

let push q i n =
  let h = q.heads.(i) in
  q.links.(n) <- h;
  q.heads.(i) <- n;
  if h < 0 then begin
    let w = i lsr 5 in
    q.bits.(w) <- q.bits.(w) lor (1 lsl (i land 31));
    q.summary <- q.summary lor (1 lsl w)
  end

(* empty bucket [i]'s list, returning its first node *)
let take q i =
  let h = q.heads.(i) in
  q.heads.(i) <- -1;
  let w = i lsr 5 in
  let word = q.bits.(w) land lnot (1 lsl (i land 31)) in
  q.bits.(w) <- word;
  if word = 0 then q.summary <- q.summary land lnot (1 lsl w);
  h

(* the first non-empty bucket at or after [i], wrapping round; -1 if none *)
let find_from q i =
  let w = i lsr 5 in
  let word = q.bits.(w) land (-1 lsl (i land 31)) in
  if word <> 0 then (w lsl 5) lor ctz32 word
  else begin
    let later = q.summary land (-1 lsl (w + 1)) in
    let s = if later <> 0 then later else q.summary in
    if s = 0 then -1
    else
      let w = ctz32 s in
      (w lsl 5) lor ctz32 q.bits.(w)
  end

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* room for one more node at the run's end *)
let make_room q =
  if q.len = Array.length q.run then
    if q.pos > 0 then begin
      Array.blit q.run q.pos q.run 0 (q.len - q.pos);
      q.len <- q.len - q.pos;
      q.pos <- 0
    end
    else begin
      let run = Array.make (2 * q.len) 0 in
      Array.blit q.run 0 run 0 q.len;
      q.run <- run
    end

let to_far q n =
  let key = q.keys.(n) and seq = q.seqs.(n) in
  Heap.add q.far ~key ~seq (release q n)

(* the run's events go to [far], which pops the cursor bucket from now on *)
let to_dense q =
  for p = q.pos to q.len - 1 do
    to_far q q.run.(p)
  done;
  q.pos <- 0;
  q.len <- 0;
  q.dense <- true

(* the node's sorted place: after every run node that precedes it *)
let insert_run q n =
  make_room q;
  let run = q.run in
  let len = q.len in
  if len = q.pos || before q run.(len - 1) n then run.(len) <- n
  else begin
    let lo = ref q.pos and hi = ref (len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if before q run.(mid) n then lo := mid + 1 else hi := mid
    done;
    Array.blit run !lo run (!lo + 1) (len - !lo);
    run.(!lo) <- n
  end;
  q.len <- len + 1

(* Make bucket [cur]'s list the run. The list is newest first, so it is
   laid out back to front, oldest first, and insertion-sorted: events
   mostly arrive in key order, which leaves little to move. *)
let load q =
  let h = take q (q.cur land mask) in
  let count = ref 0 and n = ref h in
  while !n >= 0 do
    incr count;
    n := q.links.(!n)
  done;
  let count = !count in
  if count > dense_limit then begin
    q.dense <- true;
    let n = ref h in
    while !n >= 0 do
      let node = !n in
      n := q.links.(node);
      to_far q node
    done
  end
  else begin
    if count > Array.length q.run then q.run <- Array.make (2 * count) 0;
    let run = q.run in
    let n = ref h in
    for p = count - 1 downto 0 do
      run.(p) <- !n;
      n := q.links.(!n)
    done;
    (* [before], written out: the node's key and seq are read once *)
    let keys = q.keys and seqs = q.seqs in
    for p = 1 to count - 1 do
      let node = run.(p) in
      let k = keys.(node) and s = seqs.(node) in
      let j = ref p in
      let shifting = ref true in
      while !shifting && !j > 0 do
        let prev = run.(!j - 1) in
        let pk = keys.(prev) in
        if k < pk || (k = pk && s < seqs.(prev)) then begin
          run.(!j) <- prev;
          decr j
        end
        else shifting := false
      done;
      run.(!j) <- node
    done;
    q.pos <- 0;
    q.len <- count
  end

(* far events whose bucket the window now covers move into its list *)
let migrate q =
  let limit = q.cur + nbuckets in
  while (not (Heap.is_empty q.far)) && Heap.min_key q.far lsr shift < limit do
    let key = Heap.min_key q.far and seq = Heap.min_seq q.far in
    let n = alloc q ~key ~seq (Heap.pop_min_value q.far) in
    push q ((key lsr shift) land mask) n
  done

(* Move the cursor to the next bucket holding events: the next marked one
   in the window, or else the bucket of [far]'s minimum. The cursor's own
   bucket is never marked: [load] emptied it and [add] routes its keys to
   the run. *)
let advance q =
  q.dense <- false;
  q.pos <- 0;
  q.len <- 0;
  let i = find_from q ((q.cur + 1) land mask) in
  if i >= 0 then q.cur <- q.cur + ((i - q.cur) land mask)
  else q.cur <- Heap.min_key q.far lsr shift;
  migrate q;
  load q

(* a dense cursor bucket still has events, at [far]'s top *)
let dense_left q =
  q.dense && (not (Heap.is_empty q.far)) && Heap.min_key q.far lsr shift <= q.cur

(* the minimum is at the run's head, or at [far]'s top for a dense bucket *)
let rec settle q =
  if q.pos < q.len || dense_left q then ()
  else begin
    advance q;
    settle q
  end

(* ------------------------------------------------------------------ *)
(* Interface                                                           *)
(* ------------------------------------------------------------------ *)

let add q ~key ~seq code =
  if key < 0 then invalid_arg "Calendar.add: negative key";
  q.size <- q.size + 1;
  let b = key lsr shift in
  if b >= q.cur + nbuckets then Heap.add q.far ~key ~seq code
  else if b > q.cur then push q (b land mask) (alloc q ~key ~seq code)
  else if q.dense then Heap.add q.far ~key ~seq code
  else if q.len - q.pos >= dense_limit then begin
    to_dense q;
    Heap.add q.far ~key ~seq code
  end
  else insert_run q (alloc q ~key ~seq code)

(* the engine asks for the key and then pops: both go straight to the
   run's head while it has one *)
let min_key q =
  if q.pos < q.len then q.keys.(q.run.(q.pos))
  else begin
    if q.size = 0 then raise Not_found;
    settle q;
    if q.pos < q.len then q.keys.(q.run.(q.pos)) else Heap.min_key q.far
  end

(* every key left lies in a bucket after the cursor's, unless the run or a
   dense bucket holds one *)
let rec has_key_at_most q k =
  if q.pos < q.len then q.keys.(q.run.(q.pos)) <= k
  else if dense_left q then Heap.min_key q.far <= k
  else if q.size = 0 || k lsr shift <= q.cur then false
  else begin
    advance q;
    has_key_at_most q k
  end

let pop_min_value q =
  if q.pos >= q.len then begin
    if q.size = 0 then raise Not_found;
    settle q
  end;
  q.size <- q.size - 1;
  if q.pos < q.len then begin
    let n = q.run.(q.pos) in
    q.pos <- q.pos + 1;
    release q n
  end
  else begin
    q.last_seq <- Heap.min_seq q.far;
    Heap.pop_min_value q.far
  end

let last_seq q = q.last_seq
