(* Binary min-heap on integer columns. Each element is a (key, seq, slot)
   triple held in three [int array]s in heap order; its payload lives in a
   separate slot table, written once at [add] and read once at pop. The sift
   loops therefore move only immediates: no level of a sift runs the write
   barrier or the float-array check that a polymorphic payload store costs.
   The calendar queue keeps the codes of its far and dense-bucket events
   here, in an [int t].

   The slot column doubles as the free list: positions >= [len] hold the ids
   of the free payload slots, so [slots] is always a permutation of
   [0 .. capacity - 1] and [add] takes its slot from [slots.(len)]. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;  (* indexed by slot id, not by heap position *)
  mutable len : int;
}

(* Free payload slots must not pin popped payloads against the GC: they are
   overwritten with this immediate dummy. The magic is safe because the dummy
   is never returned — only the slot of a live element is ever read — and
   because [vals] is created with an immediate initial value it is always a
   uniform (non-flat-float) block, accessed through the generic polymorphic
   array primitives. *)
let dummy () : 'a = Obj.magic 0

let create () = { keys = [||]; seqs = [||]; slots = [||]; vals = [||]; len = 0 }
let length h = h.len
let is_empty h = h.len = 0

(* called only when every slot is in use, so the new positions
   [cap .. ncap - 1] get the new slot ids [cap .. ncap - 1] *)
let grow h =
  let cap = Array.length h.keys in
  if h.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nkeys = Array.make ncap 0 in
    let nseqs = Array.make ncap 0 in
    let nslots = Array.init ncap Fun.id in
    let nvals = Array.make ncap (dummy ()) in
    Array.blit h.keys 0 nkeys 0 cap;
    Array.blit h.seqs 0 nseqs 0 cap;
    Array.blit h.slots 0 nslots 0 cap;
    Array.blit h.vals 0 nvals 0 cap;
    h.keys <- nkeys;
    h.seqs <- nseqs;
    h.slots <- nslots;
    h.vals <- nvals
  end

let add h ~key ~seq v =
  grow h;
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
  let n = h.len in
  let slot = slots.(n) in
  h.vals.(slot) <- v;
  h.len <- n + 1;
  (* sift up, moving a hole: parents slide down and the new triple is
     written exactly once, at its final position *)
  let i = ref n in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(parent) in
    if key < pk || (key = pk && seq < seqs.(parent)) then begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let pop_min_value h =
  if h.len = 0 then raise Not_found;
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
  let top = slots.(0) in
  let min_v = h.vals.(top) in
  h.vals.(top) <- dummy ();
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    (* the last triple becomes a hole-filling candidate: smaller children
       slide up and the candidate is written exactly once, where it lands *)
    let k = keys.(n) and s = seqs.(n) and sl = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ck = keys.(c) in
        if ck < k || (ck = k && seqs.(c) < s) then begin
          keys.(!i) <- ck;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- k;
    seqs.(!i) <- s;
    slots.(!i) <- sl
  end;
  (* position [n] is now past the end: it takes the freed slot *)
  slots.(n) <- top;
  min_v

let pop_min h =
  if h.len = 0 then raise Not_found;
  let key = h.keys.(0) and seq = h.seqs.(0) in
  let v = pop_min_value h in
  (key, seq, v)

let min_key h = if h.len = 0 then raise Not_found else h.keys.(0)
let min_seq h = if h.len = 0 then raise Not_found else h.seqs.(0)

(* Large heaps drop their backing stores outright; small ones null the whole
   slot table (free slots already hold the dummy). Any permutation of slot
   ids is a valid free list, so [slots] needs no reset. *)
let clear h =
  if Array.length h.keys > 64 then begin
    h.keys <- [||];
    h.seqs <- [||];
    h.slots <- [||];
    h.vals <- [||]
  end
  else Array.fill h.vals 0 (Array.length h.vals) (dummy ());
  h.len <- 0
