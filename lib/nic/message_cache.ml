module Stats = Cni_engine.Stats

type mode = Update | Invalidate

type slot = { mutable vpage : int (* -1 = free *); mutable referenced : bool }

(* The buffer map is probed on every snooped write-back line. [Int.hash]
   is the polymorphic [caml_hash], a C call per probe, so the table hashes
   inline: a multiplicative (Fibonacci) hash whose high bits reach the low
   ones the table masks with, since virtual page numbers are dense. It is
   never iterated ([bound_pages] reads the slots), so its order shows
   nowhere. *)
module Page_map = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash v = (v * 0x9E3779B97F4A7C1) lsr 17
end)

type t = {
  page_shift : int;  (* page size = 1 lsl page_shift *)
  capacity : int;
  cache_mode : mode;
  phys_to_vpage : int -> int;  (* the snooper's RTLB (reverse TLB) *)
  slots : slot array;
  map : int Page_map.t; (* vpage -> slot index: the buffer map *)
  mutable hand : int; (* clock hand *)
  s_hits : Stats.Counter.t;
  s_misses : Stats.Counter.t;
  s_binds : Stats.Counter.t;
  s_evictions : Stats.Counter.t;
  s_snoop_updates : Stats.Counter.t;
  s_snoop_invalidates : Stats.Counter.t;
}

type stats = {
  hits : int;
  misses : int;
  binds : int;
  evictions : int;
  snoop_updates : int;
  snoop_invalidates : int;
}

let subsystem = "message-cache"

let create ?registry ?node ?phys_to_vpage ~page_bytes ~capacity_bytes ~mode () =
  if page_bytes < 1 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Message_cache.create: page_bytes must be a power of two";
  let page_shift =
    let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
    log2 page_bytes
  in
  let capacity = max 1 (capacity_bytes / page_bytes) in
  let counter name =
    match registry with
    | Some reg -> Stats.Registry.counter reg ?node ~subsystem name
    | None -> Stats.Counter.create name
  in
  {
    page_shift;
    capacity;
    cache_mode = mode;
    phys_to_vpage =
      (match phys_to_vpage with
      | Some f -> f
      | None -> fun addr -> addr lsr page_shift);
    slots = Array.init capacity (fun _ -> { vpage = -1; referenced = false });
    map = Page_map.create (capacity * 2);
    hand = 0;
    s_hits = counter "hits";
    s_misses = counter "misses";
    s_binds = counter "binds";
    s_evictions = counter "evictions";
    s_snoop_updates = counter "snoop_updates";
    s_snoop_invalidates = counter "snoop_invalidates";
  }

let capacity_pages t = t.capacity
let mode t = t.cache_mode
let contains t ~vpage = Page_map.mem t.map vpage

let lookup t ~vpage =
  match Page_map.find_opt t.map vpage with
  | Some i ->
      t.slots.(i).referenced <- true;
      Stats.Counter.incr t.s_hits;
      true
  | None ->
      Stats.Counter.incr t.s_misses;
      false

let drop_slot t i =
  let s = t.slots.(i) in
  if s.vpage >= 0 then begin
    Page_map.remove t.map s.vpage;
    s.vpage <- -1;
    s.referenced <- false
  end

(* Clock (second chance): advance the hand past referenced slots, clearing
   their bits, and claim the first unreferenced one. *)
let claim_slot t =
  let rec go guard =
    let s = t.slots.(t.hand) in
    let i = t.hand in
    t.hand <- (t.hand + 1) mod t.capacity;
    if s.vpage = -1 then i
    else if s.referenced && guard > 0 then begin
      s.referenced <- false;
      go (guard - 1)
    end
    else begin
      Stats.Counter.incr t.s_evictions;
      drop_slot t i;
      i
    end
  in
  go (2 * t.capacity)

let bind t ~vpage =
  match Page_map.find_opt t.map vpage with
  | Some i -> t.slots.(i).referenced <- true
  | None ->
      let i = claim_slot t in
      t.slots.(i).vpage <- vpage;
      t.slots.(i).referenced <- true;
      Page_map.replace t.map vpage i;
      Stats.Counter.incr t.s_binds

let unbind t ~vpage =
  match Page_map.find_opt t.map vpage with Some i -> drop_slot t i | None -> ()

(* Every binding goes; the clock hand stays where it is. *)
let clear t = Array.iteri (fun i _ -> drop_slot t i) t.slots

let snoop t ~addr ~bytes =
  if bytes > 0 then begin
    let first = addr lsr t.page_shift and last = (addr + bytes - 1) lsr t.page_shift in
    for ppage = first to last do
      (* each covered physical page goes through the RTLB before the buffer
         map is consulted: the map is keyed by virtual page *)
      let vpage = t.phys_to_vpage (ppage lsl t.page_shift) in
      match Page_map.find_opt t.map vpage with
      | Some i -> (
          match t.cache_mode with
          | Update ->
              (* write-update: the buffer absorbs the data and stays bound *)
              t.slots.(i).referenced <- true;
              Stats.Counter.incr t.s_snoop_updates
          | Invalidate ->
              drop_slot t i;
              Stats.Counter.incr t.s_snoop_invalidates)
      | None -> ()
    done
  end

(* The bound pages as the slot array sees them (not the buffer map): lets
   tests check that map and slots never disagree. *)
let bound_pages t =
  Array.to_list t.slots
  |> List.filter_map (fun s -> if s.vpage >= 0 then Some s.vpage else None)
  |> List.sort compare

let stats t =
  {
    hits = Stats.Counter.value t.s_hits;
    misses = Stats.Counter.value t.s_misses;
    binds = Stats.Counter.value t.s_binds;
    evictions = Stats.Counter.value t.s_evictions;
    snoop_updates = Stats.Counter.value t.s_snoop_updates;
    snoop_invalidates = Stats.Counter.value t.s_snoop_invalidates;
  }

let reset_stats t =
  Stats.Counter.reset t.s_hits;
  Stats.Counter.reset t.s_misses;
  Stats.Counter.reset t.s_binds;
  Stats.Counter.reset t.s_evictions;
  Stats.Counter.reset t.s_snoop_updates;
  Stats.Counter.reset t.s_snoop_invalidates

let hit_ratio_opt t =
  let hits = Stats.Counter.value t.s_hits and misses = Stats.Counter.value t.s_misses in
  let total = hits + misses in
  if total = 0 then None else Some (100. *. float_of_int hits /. float_of_int total)

(* A cache with no traffic reports 0, not 100: an idle node must not inflate
   aggregate hit ratios (callers that want to skip idle nodes use
   [hit_ratio_opt]). *)
let hit_ratio t = Option.value (hit_ratio_opt t) ~default:0.
