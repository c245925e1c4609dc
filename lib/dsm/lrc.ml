module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Vec = Cni_engine.Vec
module Stats = Cni_engine.Stats
module Trace = Cni_engine.Trace
module Time = Cni_engine.Time
module Node = Cni_cluster.Node
module Cluster = Cni_cluster.Cluster
module Nic = Cni_nic.Nic
module Wire = Cni_nic.Wire
module Collectives = Cni_mp.Collectives

(* Protocol instruction counts, charged at the NIC or host clock depending
   on where the code runs. *)
type costs = {
  acquire_local : int;
  acquire_remote : int;
  release : int;
  barrier_client : int;
  fault : int;
  twin_per_word : int;
  diff_create_per_word : int;
  diff_apply_per_word : int;
  notice_apply : int;
  notice_make : int;
  server_lock : int;
  server_page : int;
  server_diff : int;
  server_barrier : int;
  server_barrier_per_node : int;
  pio_per_word : int;
}

let costs =
  {
    acquire_local = 60;
    acquire_remote = 150;
    release = 120;
    barrier_client = 120;
    fault = 150;
    twin_per_word = 2;
    diff_create_per_word = 3;
    diff_apply_per_word = 2;
    notice_apply = 4;
    notice_make = 2;
    server_lock = 150;
    server_page = 200;
    server_diff = 150;
    server_barrier = 100;
    server_barrier_per_node = 10;
    pio_per_word = 2;
  }

type page_state = {
  mutable valid : bool;
  mutable has_copy : bool;  (* some (possibly stale) base copy is resident *)
  mutable twinned : bool;
  mutable dirty_words : int;
  mutable mask : Bytes.t;  (* one bit per word; empty until first write *)
  (* version tables, created on first write (most pages never need one) *)
  mutable pending : (int, int) Hashtbl.t option;  (* owner -> highest unapplied seq *)
  mutable applied : (int, int) Hashtbl.t option;  (* owner -> highest applied seq *)
}

type lock_state = {
  mutable am_last : bool;
  mutable holding : bool;
  mutable pending_forward : (int * Vclock.t) option;
}

type barrier_acc = { mutable arrived : int; mutable vcs : (int * Vclock.t) list }

type stats = {
  faults : int;
  page_fetches : int;
  diff_fetches : int;
  twins : int;
  intervals : int;
  notices_applied : int;
  local_acquires : int;
  remote_acquires : int;
  barriers : int;
  evictions : int;
}

type t = {
  me : int;
  node : Protocol.msg Node.t;
  space : Space.t;
  max_resident : int;
  vc : Vclock.t;
  last_barrier_vc : Vclock.t;
  mutable pages : page_state option array;  (* indexed by page number *)
  locks : (int, lock_state) Hashtbl.t;
  dirty_set : int Vec.t;
  (* outstanding requests *)
  lock_waits : (int, unit Sync.Ivar.t) Hashtbl.t;
  page_waits : (int, unit Sync.Ivar.t) Hashtbl.t;
  diff_waits : (int * int, unit Sync.Ivar.t) Hashtbl.t;
  barrier_waits : (int, unit Sync.Ivar.t) Hashtbl.t;
  barrier_accs : (int, barrier_acc) Hashtbl.t;  (* used on the manager node *)
  mutable peers : t array;
  mutable coll : (Vclock.t * Protocol.notice list, Protocol.msg) Collectives.t option;
      (* NIC-resident combining tree for barriers; None = centralised node-0 *)
  resident : int Vec.t;  (* pages with has_copy, for the mapping-cap clock *)
  mutable resident_hand : int;
  mutable locks_held : int;
  s_faults : Stats.Counter.t;
  s_page_fetches : Stats.Counter.t;
  s_diff_fetches : Stats.Counter.t;
  s_twins : Stats.Counter.t;
  s_intervals : Stats.Counter.t;
  s_notices_applied : Stats.Counter.t;
  s_local_acquires : Stats.Counter.t;
  s_remote_acquires : Stats.Counter.t;
  s_barriers : Stats.Counter.t;
  s_evictions : Stats.Counter.t;
  received_by_kind : Stats.Counter.t array;  (* indexed by Protocol.kind_of *)
}

let me t = t.me
let node t = t.node
let space t = t.space
let nprocs t = Space.nprocs t.space
let page_bytes t = Space.page_bytes t.space
let page_words t = page_bytes t / 8
let nic t = Node.nic t.node

(* ------------------------------------------------------------------ *)
(* Page state                                                          *)
(* ------------------------------------------------------------------ *)

let find_page t page = if page < Array.length t.pages then t.pages.(page) else None

let get_page t page =
  match find_page t page with
  | Some st -> st
  | None ->
      let local = Space.home t.space ~page = t.me in
      let st =
        {
          valid = local;
          has_copy = local;
          twinned = false;
          dirty_words = 0;
          mask = Bytes.empty;
          pending = None;
          applied = None;
        }
      in
      let n = Array.length t.pages in
      if page >= n then begin
        let grown = Array.make (max (page + 1) (2 * n)) None in
        Array.blit t.pages 0 grown 0 n;
        t.pages <- grown
      end;
      t.pages.(page) <- Some st;
      if local then Vec.push t.resident page;
      st

(* A page's version table on first write. [Hashtbl.create 4] has 16 buckets
   however small the hint, so iteration order (and with it the order diffs
   are requested in) does not depend on when the table was created. *)
let pending_table st =
  match st.pending with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      st.pending <- Some h;
      h

let applied_table st =
  match st.applied with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      st.applied <- Some h;
      h

let applied_seq st owner =
  match st.applied with
  | Some h -> ( match Hashtbl.find_opt h owner with Some s -> s | None -> 0)
  | None -> 0

(* Mapping cap: evict a clean resident page (approximate LRU via a clock over
   the resident list). Dirty/in-flight pages are skipped. Re-fetched pages
   are pushed again, so the list is compacted when stale entries dominate. *)
let compact_resident t =
  if Vec.length t.resident > 4 * t.max_resident then begin
    let live = Vec.fold_left (fun acc p -> if (get_page t p).has_copy then p :: acc else acc) [] t.resident in
    Vec.clear t.resident;
    List.iter (fun p -> Vec.push t.resident p) (List.sort_uniq compare live);
    t.resident_hand <- 0
  end

let maybe_evict t =
  if t.max_resident < max_int && Vec.length t.resident > t.max_resident then begin
    compact_resident t;
    let n = Vec.length t.resident in
    let rec go attempts =
      if attempts > 0 then begin
        t.resident_hand <- (t.resident_hand + 1) mod n;
        let page = Vec.get t.resident t.resident_hand in
        let st = get_page t page in
        if
          st.has_copy
          && (not st.twinned)
          && (not (Hashtbl.mem t.page_waits page))
          (* never drop the only base copy in the cluster *)
          && Space.last_writer t.space ~page <> t.me
        then begin
          st.valid <- false;
          st.has_copy <- false;
          Stats.Counter.incr t.s_evictions
        end
        else go (attempts - 1)
      end
    in
    go n
  end

let note_resident t page =
  let st = get_page t page in
  if not st.has_copy then begin
    st.has_copy <- true;
    Vec.push t.resident page;
    maybe_evict t
  end

(* ------------------------------------------------------------------ *)
(* Execution contexts                                                  *)
(* ------------------------------------------------------------------ *)

(* The same protocol code runs as a client (application fiber: overhead
   charged to the node, waits accounted as synch delay) and as a server
   (handler context: charged at the NIC or host clock by the NIC layer). *)
type exec = {
  charge : int -> unit;
  send : dst:int -> Protocol.msg -> Nic.data -> unit;
  wait : unit Sync.Ivar.t -> unit;
}

let client_exec t =
  {
    charge = (fun n -> Node.overhead_cycles t.node n);
    send =
      (fun ~dst msg data ->
        Nic.send (nic t) ~dst
          ~header:(Protocol.header ~src:t.me msg)
          ~body_bytes:(Protocol.body_bytes msg) ~data ~payload:msg);
    wait = (fun iv -> Node.blocking t.node (fun () -> Sync.Ivar.read iv));
  }

let server_exec t (ctx : Protocol.msg Nic.ctx) =
  {
    charge = ctx.Nic.charge;
    send =
      (fun ~dst msg data ->
        ctx.Nic.reply ~dst
          ~header:(Protocol.header ~src:t.me msg)
          ~body_bytes:(Protocol.body_bytes msg) ~data ~payload:msg);
    wait = Sync.Ivar.read;
  }

let find_or_create_wait tbl key =
  match Hashtbl.find_opt tbl key with
  | Some iv -> (iv, false)
  | None ->
      let iv = Sync.Ivar.create () in
      Hashtbl.replace tbl key iv;
      (iv, true)

let take_wait tbl key =
  match Hashtbl.find_opt tbl key with
  | Some iv ->
      Hashtbl.remove tbl key;
      Some iv
  | None -> None

(* ------------------------------------------------------------------ *)
(* Dirty masks and diff sizes                                          *)
(* ------------------------------------------------------------------ *)

(* diff wire size: the changed words plus an 8-byte (offset,len) header per
   contiguous run, mirroring Diff.wire_bytes *)
let diff_bytes_of_mask mask dirty_words =
  let runs = ref 0 in
  let prev = ref false in
  let nbits = Bytes.length mask * 8 in
  for w = 0 to nbits - 1 do
    let set = Char.code (Bytes.get mask (w lsr 3)) land (1 lsl (w land 7)) <> 0 in
    if set && not !prev then incr runs;
    prev := set
  done;
  (dirty_words * 8) + (!runs * 8)

(* ------------------------------------------------------------------ *)
(* Interval closing (a release point)                                  *)
(* ------------------------------------------------------------------ *)

let close_interval t =
  if Vec.length t.dirty_set > 0 then begin
    let seq = Vclock.incr t.vc t.me in
    let pb = page_bytes t in
    let total_dirty = ref 0 in
    let notices =
      Vec.fold_left
        (fun acc page ->
          let st = get_page t page in
          let diff_bytes = diff_bytes_of_mask st.mask st.dirty_words in
          total_dirty := !total_dirty + st.dirty_words;
          (* diff creation scans the page (cache traffic) ... *)
          Node.touch t.node ~addr:(Space.addr_of_page t.space page) ~bytes:pb ~write:false;
          { Protocol.page; owner = t.me; seq; diff_bytes } :: acc)
        [] t.dirty_set
    in
    (* ... and its cost is protocol overhead *)
    Node.overhead_cycles t.node
      ((costs.diff_create_per_word * !total_dirty) + (costs.notice_make * List.length notices));
    (* write-back consistency: flush the dirtied pages so host memory (and,
       through snooping, the Message Cache) holds the released data *)
    Vec.iter
      (fun page -> Node.flush_range t.node ~addr:(Space.addr_of_page t.space page) ~bytes:pb)
      t.dirty_set;
    (* on a CNI board the write-notice metadata (offsets and run lists) is
       deposited into AIH memory by programmed I/O; diff DATA is extracted
       lazily at request time from the Message Cache copy (or DMAed then) *)
    if Nic.aih_enabled (nic t) then
      Node.overhead_cycles t.node (costs.pio_per_word * 2 * List.length notices);
    Space.record_interval t.space ~node:t.me ~seq ~notices;
    Vec.iter
      (fun page ->
        let st = get_page t page in
        st.twinned <- false;
        st.dirty_words <- 0;
        if Bytes.length st.mask > 0 then Bytes.fill st.mask 0 (Bytes.length st.mask) '\000';
        Hashtbl.replace (applied_table st) t.me seq;
        Space.set_last_writer t.space ~page ~node:t.me)
      t.dirty_set;
    Vec.clear t.dirty_set;
    Stats.Counter.incr t.s_intervals
  end

(* ------------------------------------------------------------------ *)
(* Write notices                                                       *)
(* ------------------------------------------------------------------ *)

let apply_notices t ex notices =
  let n = List.length notices in
  if n > 0 then ex.charge (costs.notice_apply * n);
  List.iter
    (fun { Protocol.page; owner; seq; _ } ->
      if owner <> t.me then begin
        let st = get_page t page in
        if seq > applied_seq st owner then begin
          st.valid <- false;
          let pending = pending_table st in
          (match Hashtbl.find_opt pending owner with
          | Some upto when upto >= seq -> ()
          | _ -> Hashtbl.replace pending owner seq);
          Stats.Counter.incr t.s_notices_applied
        end
      end)
    notices

(* ------------------------------------------------------------------ *)
(* Fault handling                                                      *)
(* ------------------------------------------------------------------ *)

let addr_of t page = Space.addr_of_page t.space page

(* Full-page fetch from [owner]; the reply's handler merges version metadata
   and fills the wait. *)
let fetch_page t ex ~page ~owner ~write_intent =
  Stats.Counter.incr t.s_page_fetches;
  let iv, fresh = find_or_create_wait t.page_waits page in
  if fresh then
    ex.send ~dst:owner (Protocol.Page_req { page; requester = t.me; write_intent }) Nic.No_data;
  ex.wait iv

let fetch_diffs t ex ~page ~owners =
  List.iter
    (fun (owner, upto) ->
      let since = applied_seq (get_page t page) owner in
      if upto > since then begin
        Stats.Counter.incr t.s_diff_fetches;
        let iv, fresh = find_or_create_wait t.diff_waits (page, owner) in
        if fresh then
          ex.send ~dst:owner
            (Protocol.Diff_req { page; requester = t.me; since; upto })
            Nic.No_data;
        ignore iv
      end)
    owners;
  List.iter
    (fun (owner, _) ->
      match Hashtbl.find_opt t.diff_waits (page, owner) with
      | Some iv -> ex.wait iv
      | None -> ())
    owners

let pending_owners st =
  match st.pending with
  | None -> []
  | Some pending ->
      Hashtbl.fold
        (fun owner upto acc -> if upto > applied_seq st owner then (owner, upto) :: acc else acc)
        pending []

(* Deadlock freedom: a diff request is always served immediately from the
   owner's diff log, but a page request may force the server to fault its
   own copy in first. To keep those server-side faults from forming request
   cycles, a full page is only ever requested from a node whose copy is
   currently valid (or from the last writer when we have no base copy at
   all — the last writer always retains a base). A faulting server therefore
   resolves through diffs alone and terminates. The validity peek stands in
   for the directory state a real implementation would consult. *)
let peer_copy_valid t ~page ~owner =
  match find_page t.peers.(owner) page with Some st -> st.valid | None -> false

let rec fault_in t ex ~page ~write_intent =
  let st = get_page t page in
  if not st.valid then begin
    Stats.Counter.incr t.s_faults;
    ex.charge costs.fault;
    (if not st.has_copy then begin
       (* no base copy: must take the whole page from its last writer *)
       let owner = Space.last_writer t.space ~page in
       if owner = t.me then begin
         st.valid <- true;
         note_resident t page
       end
       else fetch_page t ex ~page ~owner ~write_intent
     end
     else
       let owners = pending_owners st in
       match owners with
       | [] -> st.valid <- true
       | [ (owner, upto) ]
         when Space.diff_bytes_between t.space ~owner ~page ~since:(applied_seq st owner)
                ~upto
              * 2
              >= page_bytes t
              && peer_copy_valid t ~page ~owner ->
           (* the diff approaches the page size: migrate the whole page *)
           fetch_page t ex ~page ~owner ~write_intent
       | owners -> fetch_diffs t ex ~page ~owners);
    (* a concurrent fault may have completed the work while we waited *)
    let st = get_page t page in
    if pending_owners st = [] then begin
      st.valid <- true;
      note_resident t page
    end
    else fault_in t ex ~page ~write_intent
  end

(* The migratory hint that sets the to-be-cached bit on the page request:
   lock-protected data moves from releaser to acquirer (and will likely be
   forwarded again), as will pages we are about to rewrite; barrier-phase
   read-only fetches are not worth a buffer at the receiver. *)
let migratory_hint t ~write = write || t.locks_held > 0

let ensure_read t ~page =
  let st = get_page t page in
  if not st.valid then
    fault_in t (client_exec t) ~page ~write_intent:(migratory_hint t ~write:false)

let ensure_write t ~page =
  let st0 = get_page t page in
  if not st0.valid then fault_in t (client_exec t) ~page ~write_intent:true;
  let st = get_page t page in
  if not st.twinned then begin
    let words = page_words t in
    (* twin: copy the page into a shadow buffer (real cache traffic) *)
    let twin_addr = addr_of t page + (1 lsl 50) in
    Node.touch t.node ~addr:(addr_of t page) ~bytes:(page_bytes t) ~write:false;
    Node.touch t.node ~addr:twin_addr ~bytes:(page_bytes t) ~write:true;
    Node.overhead_cycles t.node (costs.twin_per_word * words);
    st.twinned <- true;
    if Bytes.length st.mask = 0 then st.mask <- Bytes.make ((words + 7) / 8) '\000';
    Vec.push t.dirty_set page;
    Stats.Counter.incr t.s_twins
  end

let mark_dirty_words t ~page ~word_lo ~words =
  let st = get_page t page in
  assert st.twinned;
  let mask = st.mask in
  for w = word_lo to word_lo + words - 1 do
    let b = Char.code (Bytes.get mask (w lsr 3)) in
    let bit = 1 lsl (w land 7) in
    if b land bit = 0 then begin
      Bytes.set mask (w lsr 3) (Char.chr (b lor bit));
      st.dirty_words <- st.dirty_words + 1
    end
  done

let validate_local t ~page =
  let st = get_page t page in
  st.valid <- true;
  note_resident t page;
  Space.set_last_writer t.space ~page ~node:t.me

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let get_lock t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some st -> st
  | None ->
      let st =
        {
          am_last = Space.lock_manager t.space ~lock = t.me;
          holding = false;
          pending_forward = None;
        }
      in
      Hashtbl.replace t.locks lock st;
      st

(* Grant the lock to [requester]: piggyback every interval it has not seen. *)
let send_grant t ex ~lock ~requester ~req_vc =
  let notices = Space.notices_between t.space ~from_vc:req_vc ~upto_vc:t.vc in
  ex.charge (costs.notice_make * List.length notices);
  ex.send ~dst:requester
    (Protocol.Lock_grant { lock; vc = Vclock.copy t.vc; notices })
    Nic.No_data

(* The token must stay with us for now when we hold the lock, or when our own
   acquire is still in flight (the manager made us last owner before our
   grant arrived; granting now would give the lock away while we are about
   to receive it). *)
let must_defer_grant t lock =
  let st = get_lock t lock in
  st.holding || Hashtbl.mem t.lock_waits lock

(* Server side: an acquire arrived at the manager (or was routed locally). *)
let handle_lock_acquire t ex ~lock ~requester ~req_vc =
  ex.charge costs.server_lock;
  let prev = Space.lock_last_owner t.space ~lock in
  Space.set_lock_last_owner t.space ~lock ~node:requester;
  if prev = requester then
    (* defensive: the requester already owns the token *)
    send_grant t ex ~lock ~requester ~req_vc
  else if prev = t.me then begin
    (* the manager itself is the last owner: grant or queue locally *)
    let st = get_lock t lock in
    st.am_last <- false;
    if must_defer_grant t lock then st.pending_forward <- Some (requester, req_vc)
    else send_grant t ex ~lock ~requester ~req_vc
  end
  else ex.send ~dst:prev (Protocol.Lock_forward { lock; requester; vc = req_vc }) Nic.No_data

let acquire t ~lock =
  let st = get_lock t lock in
  if st.holding then invalid_arg "Lrc.acquire: lock already held";
  if st.am_last then begin
    (* we were the last owner and nobody asked for the lock since: reacquire
       locally with no traffic. Claim the lock BEFORE charging the cost: the
       charge advances simulated time, and a forward arriving in that window
       must see the lock as held and queue behind us. *)
    st.holding <- true;
    t.locks_held <- t.locks_held + 1;
    Stats.Counter.incr t.s_local_acquires;
    Node.overhead_cycles t.node costs.acquire_local
  end
  else begin
    let ex = client_exec t in
    ex.charge costs.acquire_remote;
    let iv, fresh = find_or_create_wait t.lock_waits lock in
    assert fresh;
    let manager = Space.lock_manager t.space ~lock in
    if manager = t.me then
      (* we are the manager: route locally, no message *)
      handle_lock_acquire t ex ~lock ~requester:t.me ~req_vc:(Vclock.copy t.vc)
    else
      ex.send ~dst:manager
        (Protocol.Lock_acquire { lock; requester = t.me; vc = Vclock.copy t.vc })
        Nic.No_data;
    ex.wait iv;
    (* am_last was set by the grant handler (and possibly cleared again by a
       forward that overtook our wakeup) — do not overwrite it here *)
    st.holding <- true;
    t.locks_held <- t.locks_held + 1;
    Stats.Counter.incr t.s_remote_acquires
  end

let release t ~lock =
  let st = get_lock t lock in
  if not st.holding then invalid_arg "Lrc.release: lock not held";
  close_interval t;
  Node.overhead_cycles t.node costs.release;
  st.holding <- false;
  t.locks_held <- t.locks_held - 1;
  match st.pending_forward with
  | Some (requester, req_vc) ->
      st.pending_forward <- None;
      st.am_last <- false;
      send_grant t (client_exec t) ~lock ~requester ~req_vc
  | None -> ()

let handle_lock_forward t ex ~lock ~requester ~req_vc =
  ex.charge costs.server_lock;
  let st = get_lock t lock in
  st.am_last <- false;
  if must_defer_grant t lock then st.pending_forward <- Some (requester, req_vc)
  else send_grant t ex ~lock ~requester ~req_vc

let handle_lock_grant t ex ~lock ~vc ~notices =
  apply_notices t ex notices;
  Vclock.merge t.vc vc;
  let st = get_lock t lock in
  (* we are the last owner unless a forward already queued behind us *)
  st.am_last <- st.pending_forward = None;
  (* the lock is ours from this instant: a forward processed between this
     handler and the application fiber's wakeup must queue behind us *)
  st.holding <- true;
  match take_wait t.lock_waits lock with
  | Some iv -> Sync.Ivar.fill iv ()
  | None -> failwith "Lrc: unexpected lock grant"

(* ------------------------------------------------------------------ *)
(* Pages and diffs (server side)                                       *)
(* ------------------------------------------------------------------ *)

let handle_page_req t ex ~page ~requester ~write_intent =
  ex.charge costs.server_page;
  (* our copy may itself be invalid (we applied notices since we wrote it);
     bring it up to date before serving *)
  let st = get_page t page in
  if not st.valid then fault_in t ex ~page ~write_intent:false;
  (* transmit caching: the board binds the served page regardless (we are
     its last writer and may serve it again); receive caching at the other
     end is keyed by the migratory bit *)
  ex.send ~dst:requester
    (Protocol.Page_reply { page; migratory = write_intent })
    (Nic.Page { vaddr = addr_of t page; bytes = page_bytes t; cacheable = true })

let handle_page_reply t (ctx : Protocol.msg Nic.ctx) ex ~page ~server ~migratory =
  ex.charge costs.server_page;
  ctx.Nic.deliver_page ~vaddr:(addr_of t page) ~bytes:(page_bytes t) ~cacheable:migratory;
  let st = get_page t page in
  (* the server's copy carries everything the server had applied: merge its
     version vector (metadata; the data arrived as the full page) *)
  let peer = t.peers.(server) in
  (match find_page peer page with
  | Some { applied = Some peer_applied; _ } ->
      Hashtbl.iter
        (fun owner seq ->
          if seq > applied_seq st owner then Hashtbl.replace (applied_table st) owner seq)
        peer_applied
  | Some { applied = None; _ } | None -> ());
  (* drop the pending entries the fetched copy satisfies *)
  Option.iter
    (fun pending ->
      Hashtbl.iter
        (fun owner upto -> if upto <= applied_seq st owner then Hashtbl.remove pending owner)
        (Hashtbl.copy pending))
    st.pending;
  (* note_resident both records the copy and runs the mapping-cap clock *)
  note_resident t page;
  match take_wait t.page_waits page with
  | Some iv -> Sync.Ivar.fill iv ()
  | None -> failwith "Lrc: unexpected page reply" 

let handle_diff_req t ex ~page ~requester ~since ~upto =
  ex.charge costs.server_diff;
  let bytes = Space.diff_bytes_between t.space ~owner:t.me ~page ~since ~upto in
  (* the diff data comes out of the page's buffer: on a CNI board a Message
     Cache hit serves it without touching the host; a miss DMAs the words
     and binds the page so later requests (diff or full page) are served
     from the board *)
  let data = Nic.Page { vaddr = addr_of t page; bytes = max bytes 8; cacheable = true } in
  ex.send ~dst:requester (Protocol.Diff_reply { page; owner = t.me; bytes; upto }) data

let handle_diff_reply t (ctx : Protocol.msg Nic.ctx) ex ~page ~owner ~bytes ~upto =
  let words = (bytes + 7) / 8 in
  ex.charge (costs.diff_apply_per_word * words);
  (* the changed words are written into the host page *)
  if bytes > 0 then
    ctx.Nic.deliver_page ~vaddr:(addr_of t page)
      ~bytes:(min bytes (page_bytes t))
      ~cacheable:false;
  let st = get_page t page in
  if upto > applied_seq st owner then Hashtbl.replace (applied_table st) owner upto;
  (match st.pending with
  | Some pending -> (
      match Hashtbl.find_opt pending owner with
      | Some p when p <= upto -> Hashtbl.remove pending owner
      | Some _ | None -> ())
  | None -> ());
  match take_wait t.diff_waits (page, owner) with
  | Some iv -> Sync.Ivar.fill iv ()
  | None -> failwith "Lrc: unexpected diff reply"

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)
(* ------------------------------------------------------------------ *)

let own_notices_since_last_barrier t =
  let from = Vclock.copy t.vc in
  Vclock.set from t.me (Vclock.get t.last_barrier_vc t.me);
  Space.notices_between t.space ~from_vc:from ~upto_vc:t.vc

let get_barrier_acc t id =
  match Hashtbl.find_opt t.barrier_accs id with
  | Some acc -> acc
  | None ->
      let acc = { arrived = 0; vcs = [] } in
      Hashtbl.replace t.barrier_accs id acc;
      acc

(* Runs on the manager (node 0) for every arrival, including its own. *)
let barrier_arrival t ex ~id ~from ~vc =
  ex.charge costs.server_barrier;
  let acc = get_barrier_acc t id in
  acc.arrived <- acc.arrived + 1;
  acc.vcs <- (from, vc) :: acc.vcs;
  if acc.arrived = nprocs t then begin
    let merged = Vclock.create (nprocs t) in
    List.iter (fun (_, v) -> Vclock.merge merged v) acc.vcs;
    ex.charge (costs.server_barrier_per_node * nprocs t);
    (* construct the union of unseen intervals ONCE (from the pointwise
       minimum of the arrival clocks) and broadcast the same notice list to
       every node — TreadMarks-style interval distribution; per-destination
       filtering would cost O(P * notices) on the protocol processor *)
    let min_vc = Vclock.copy merged in
    List.iter
      (fun (_, v) ->
        for k = 0 to nprocs t - 1 do
          if Vclock.get v k < Vclock.get min_vc k then Vclock.set min_vc k (Vclock.get v k)
        done)
      acc.vcs;
    let notices = Space.notices_between t.space ~from_vc:min_vc ~upto_vc:merged in
    ex.charge (costs.notice_make * List.length notices);
    List.iter
      (fun (n, _) ->
        if n <> t.me then
          ex.send ~dst:n
            (Protocol.Barrier_release { barrier = id; vc = Vclock.copy merged; notices })
            Nic.No_data)
      acc.vcs;
    (* the manager's own release is local *)
    let my_notices = Space.notices_between t.space ~from_vc:t.vc ~upto_vc:merged in
    apply_notices t ex my_notices;
    Vclock.merge t.vc merged;
    Vclock.merge t.last_barrier_vc t.vc;
    acc.arrived <- 0;
    acc.vcs <- [];
    match take_wait t.barrier_waits id with
    | Some iv -> Sync.Ivar.fill iv ()
    | None -> failwith "Lrc: barrier completed with no local waiter"
  end

let handle_barrier_release t ex ~id ~vc ~notices =
  apply_notices t ex notices;
  Vclock.merge t.vc vc;
  Vclock.merge t.last_barrier_vc t.vc;
  match take_wait t.barrier_waits id with
  | Some iv -> Sync.Ivar.fill iv ()
  | None -> failwith "Lrc: unexpected barrier release"

let now_ps t = Time.to_ps (Engine.now (Node.engine t.node))

(* Centralised barrier (the original path, kept as an ablation): every node
   sends its arrival to the manager, which merges and broadcasts releases. *)
let centralised_barrier t ~id =
  let manager = Space.barrier_manager t.space ~barrier:id in
  let ex = client_exec t in
  let iv, fresh = find_or_create_wait t.barrier_waits id in
  assert fresh;
  if t.me = manager then barrier_arrival t ex ~id ~from:t.me ~vc:(Vclock.copy t.vc)
  else begin
    let notices = own_notices_since_last_barrier t in
    ex.send ~dst:manager
      (Protocol.Barrier_arrive { barrier = id; node = t.me; vc = Vclock.copy t.vc; notices })
      Nic.No_data
  end;
  Node.blocking t.node (fun () -> Sync.Ivar.read iv)

(* NIC-resident barrier: an allreduce over the boards' combining tree. Each
   node contributes its vector clock and the intervals it created since its
   own last barrier; the tree merges clocks and unions notice lists in
   protocol context. That union covers everything any node can be missing —
   the previous barrier's release brought everyone up to its merged clock,
   so only since-then intervals (each present in exactly one contribution)
   are outstanding — and [apply_notices] deduplicates anything a lock grant
   already delivered. The host is woken once, with the episode's result. *)
let collective_barrier t coll =
  let contribution = (Vclock.copy t.vc, own_notices_since_last_barrier t) in
  let vc, notices =
    Collectives.allreduce coll
      ~op:(fun (vc1, n1) (vc2, n2) ->
        let vc = Vclock.copy vc1 in
        Vclock.merge vc vc2;
        (vc, List.rev_append n1 n2))
      contribution
  in
  apply_notices t (client_exec t) notices;
  Vclock.merge t.vc vc;
  Vclock.merge t.last_barrier_vc t.vc

let barrier t ~id =
  close_interval t;
  Node.overhead_cycles t.node costs.barrier_client;
  Stats.Counter.incr t.s_barriers;
  if Trace.enabled_cat Trace.Dsm then
    Trace.span_begin ~t_ps:(now_ps t) ~node:t.me Trace.Dsm ~label:"barrier" ~payload:id;
  if nprocs t > 1 then
    (match t.coll with
    | Some coll -> collective_barrier t coll
    | None -> centralised_barrier t ~id);
  if Trace.enabled_cat Trace.Dsm then
    Trace.span_end ~t_ps:(now_ps t) ~node:t.me Trace.Dsm ~label:"barrier" ~payload:id

(* ------------------------------------------------------------------ *)
(* Server dispatch and installation                                    *)
(* ------------------------------------------------------------------ *)

let handle t (ctx : Protocol.msg Nic.ctx) (pkt : Protocol.msg Cni_atm.Fabric.packet) =
  let ex = server_exec t ctx in
  let kind = Protocol.kind_of pkt.Cni_atm.Fabric.payload in
  Stats.Counter.incr t.received_by_kind.(kind);
  if Trace.enabled_cat Trace.Dsm then
    Trace.emit ~t_ps:(now_ps t) ~node:t.me Trace.Dsm
      ~label:(Protocol.kind_name kind)
      ~payload:(Protocol.obj_of pkt.Cni_atm.Fabric.payload);
  match pkt.Cni_atm.Fabric.payload with
  | Protocol.Lock_acquire { lock; requester; vc } ->
      handle_lock_acquire t ex ~lock ~requester ~req_vc:vc
  | Protocol.Lock_forward { lock; requester; vc } ->
      handle_lock_forward t ex ~lock ~requester ~req_vc:vc
  | Protocol.Lock_grant { lock; vc; notices } -> handle_lock_grant t ex ~lock ~vc ~notices
  | Protocol.Page_req { page; requester; write_intent } ->
      handle_page_req t ex ~page ~requester ~write_intent
  | Protocol.Page_reply { page; migratory } ->
      handle_page_reply t ctx ex ~page ~server:pkt.Cni_atm.Fabric.src ~migratory
  | Protocol.Diff_req { page; requester; since; upto } ->
      handle_diff_req t ex ~page ~requester ~since ~upto
  | Protocol.Diff_reply { page; owner; bytes; upto } ->
      handle_diff_reply t ctx ex ~page ~owner ~bytes ~upto
  | Protocol.Barrier_arrive { barrier; node; vc; notices } ->
      ignore notices;
      barrier_arrival t ex ~id:barrier ~from:node ~vc
  | Protocol.Barrier_release { barrier; vc; notices } ->
      handle_barrier_release t ex ~id:barrier ~vc ~notices
  | Protocol.Coll _ ->
      (* routed on the collectives channel, classified by its own handler *)
      failwith "Lrc: collective payload arrived on the DSM channel"

let create cluster space_ max_resident ~id =
  let n = Cluster.node cluster id in
  let registry = Cluster.metrics cluster in
  let counter name = Stats.Registry.counter registry ~node:id ~subsystem:"dsm" name in
  (* per-kind receive counters live under dsm/rx; unused kind indices get
     standalone counters so the registry only lists real protocol kinds *)
  let rx_counter kind =
    if List.mem kind Protocol.all_kinds then
      Stats.Registry.counter registry ~node:id ~subsystem:"dsm/rx"
        (Protocol.kind_name kind)
    else Stats.Counter.create (Printf.sprintf "rx_kind_%d" kind)
  in
  {
    me = id;
    node = n;
    space = space_;
    max_resident;
    vc = Vclock.create (Space.nprocs space_);
    last_barrier_vc = Vclock.create (Space.nprocs space_);
    pages = [||];
    locks = Hashtbl.create 64;
    dirty_set = Vec.create ();
    lock_waits = Hashtbl.create 16;
    page_waits = Hashtbl.create 64;
    diff_waits = Hashtbl.create 64;
    barrier_waits = Hashtbl.create 8;
    barrier_accs = Hashtbl.create 8;
    peers = [||];
    coll = None;
    resident = Vec.create ();
    resident_hand = 0;
    locks_held = 0;
    s_faults = counter "faults";
    s_page_fetches = counter "page_fetches";
    s_diff_fetches = counter "diff_fetches";
    s_twins = counter "twins";
    s_intervals = counter "intervals";
    s_notices_applied = counter "notices_applied";
    s_local_acquires = counter "local_acquires";
    s_remote_acquires = counter "remote_acquires";
    s_barriers = counter "barriers";
    s_evictions = counter "evictions";
    received_by_kind = Array.init 16 rx_counter;
  }

(* The wire channel the NIC-resident barrier's combining tree claims
   (Protocol.channel = 1 carries the point-to-point DSM traffic). *)
let collectives_channel = 4

let install cluster space_ ?(max_resident_pages = max_int) ?(barrier_impl = `Centralised) () =
  let n = Cluster.size cluster in
  let engines = Array.init n (fun id -> create cluster space_ max_resident_pages ~id) in
  let coll =
    match barrier_impl with
    | `Centralised -> None
    | `Nic_collective ->
        Some
          (Collectives.install ~channel:collectives_channel
             ~bytes_of:(fun (vc, notices) ->
               8 + Vclock.wire_bytes vc + Protocol.notices_bytes notices)
             ~inject:(fun (vc, notices) -> Protocol.Coll { vc; notices })
             ~project:(function
               | Protocol.Coll { vc; notices } -> (vc, notices)
               | _ -> assert false)
             cluster)
  in
  Array.iter
    (fun t ->
      t.peers <- engines;
      t.coll <- Option.map (fun c -> c.(t.me)) coll;
      let board = nic t in
      (* one Application Interrupt Handler per protocol kind: each gets its
         own PATHFINDER pattern (sharing the channel-match prefix in the DAG)
         and a segment of board memory for its object code *)
      List.iter
        (fun kind ->
          let pattern = Wire.pattern_channel_kind ~channel:Protocol.channel ~kind in
          ignore (Nic.install_handler board ~pattern ~code_bytes:1024 (handle t)))
        Protocol.all_kinds;
      Nic.set_default_handler board (fun _ctx pkt ->
          failwith
            (Format.asprintf "Lrc: unclassified packet %a" Protocol.pp pkt.Cni_atm.Fabric.payload)))
    engines;
  engines

let stats t =
  {
    faults = Stats.Counter.value t.s_faults;
    page_fetches = Stats.Counter.value t.s_page_fetches;
    diff_fetches = Stats.Counter.value t.s_diff_fetches;
    twins = Stats.Counter.value t.s_twins;
    intervals = Stats.Counter.value t.s_intervals;
    notices_applied = Stats.Counter.value t.s_notices_applied;
    local_acquires = Stats.Counter.value t.s_local_acquires;
    remote_acquires = Stats.Counter.value t.s_remote_acquires;
    barriers = Stats.Counter.value t.s_barriers;
    evictions = Stats.Counter.value t.s_evictions;
  }

(* Messages this node's protocol engine has received, by kind — the traffic
   mix behind the timing results. *)
let received_messages t =
  List.filter_map
    (fun kind ->
      let n = Stats.Counter.value t.received_by_kind.(kind) in
      if n > 0 then Some (Protocol.kind_name kind, n) else None)
    Protocol.all_kinds
