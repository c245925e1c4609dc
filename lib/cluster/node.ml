module Engine = Cni_engine.Engine
module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Cache = Cni_machine.Cache
module Tlb = Cni_machine.Tlb
module Bus = Cni_machine.Bus
module Nic = Cni_nic.Nic

type 'a t = {
  id : int;
  eng : Engine.t;
  p : Params.t;
  cache : Cache.t;
  tlb : Tlb.t;
  bus : Bus.t;
  mutable nic : 'a Nic.t option;
  mutable waiting : bool;
  mutable stolen : Time.t;
  (* crash freeze: while set, the application fiber parks at its next
     interaction point until the node restarts *)
  mutable frozen : bool;
  mutable thaw : (unit -> unit) list;
  mutable t_frozen : Time.t;
  (* batched application cost *)
  mutable pending_cycles : int;
  mutable pending_extra : Time.t;
  (* category accounting *)
  mutable t_compute : Time.t;
  mutable t_overhead : Time.t;
  mutable t_delay : Time.t;
  mutable t_service : Time.t;
  mutable finish_time : Time.t;
  mutable finished : bool;
}

type report = {
  computation : Time.t;
  synch_overhead : Time.t;
  synch_delay : Time.t;
  finish_time : Time.t;
  service_time : Time.t;
  frozen_time : Time.t;
}

let create ?registry ?reliability eng p fabric ~id ~nic_kind =
  let bus = Bus.create eng p in
  let t =
    {
      id;
      eng;
      p;
      cache = Cache.create p;
      tlb = Tlb.create ~entries:p.Params.tlb_entries ~miss_cycles:p.Params.tlb_miss_cycles
          ~page_bytes:p.Params.page_bytes;
      bus;
      nic = None;
      waiting = false;
      stolen = Time.zero;
      frozen = false;
      thaw = [];
      t_frozen = Time.zero;
      pending_cycles = 0;
      pending_extra = Time.zero;
      t_compute = Time.zero;
      t_overhead = Time.zero;
      t_delay = Time.zero;
      t_service = Time.zero;
      finish_time = Time.zero;
      finished = false;
    }
  in
  let host =
    {
      Nic.host_waiting = (fun () -> t.waiting);
      steal = (fun d -> t.stolen <- Time.(t.stolen + d));
      invalidate_range =
        (fun ~addr ~bytes -> ignore (Cache.invalidate_range t.cache ~addr ~bytes));
      overhead = (fun d -> t.t_service <- Time.(t.t_service + d));
    }
  in
  t.nic <- Some (Nic.create ?registry ?reliability ~kind:nic_kind eng bus fabric ~node:id ~host);
  t

let id t = t.id
let params t = t.p
let engine t = t.eng
let nic t = match t.nic with Some n -> n | None -> assert false
let cache t = t.cache
let bus t = t.bus

(* Park the calling application fiber while its node is crashed. Checked at
   every interaction point (anything that flushes batched work); the fiber's
   program state — host memory — survives the crash, it just stops making
   progress until the restart thaws it. The loop re-parks if the node
   crashes again at the very instant it was thawed. *)
let freeze_point t =
  while t.frozen do
    let t0 = Engine.now t.eng in
    Engine.suspend (fun resume -> t.thaw <- resume :: t.thaw);
    t.t_frozen <- Time.(t.t_frozen + (Engine.now t.eng - t0))
  done

let freeze t = t.frozen <- true

let unfreeze t =
  if t.frozen then begin
    t.frozen <- false;
    let resumes = t.thaw in
    t.thaw <- [];
    List.iter (fun resume -> resume ()) resumes
  end

let frozen t = t.frozen

let flush_pending t =
  freeze_point t;
  let cpu = Params.cpu_cycles t.p t.pending_cycles in
  let compute = Time.(cpu + t.pending_extra) in
  let stolen = t.stolen in
  t.pending_cycles <- 0;
  t.pending_extra <- Time.zero;
  t.stolen <- Time.zero;
  t.t_compute <- Time.(t.t_compute + compute);
  t.t_overhead <- Time.(t.t_overhead + stolen);
  let total = Time.(compute + stolen) in
  if total > Time.zero then Engine.delay total

let work t cycles = t.pending_cycles <- t.pending_cycles + cycles

(* Bus occupancy of the write-backs the last cache operation left in the
   cache's buffer; each line is snooped as it crosses the bus. *)
let writeback_time t =
  let total = ref Time.zero in
  for i = 0 to Cache.writebacks t.cache - 1 do
    total := Time.(!total + Bus.writeback_line t.bus (Cache.writeback t.cache i))
  done;
  !total

let touch t ~addr ~bytes ~write =
  if bytes > 0 then begin
    let line = t.p.Params.line_bytes in
    let last = addr + bytes - 1 in
    let la = ref (addr land lnot (line - 1)) in
    while !la <= last do
      let tlb = Tlb.lookup t.tlb ~addr:!la in
      let cache = Cache.access_line t.cache ~addr:!la ~write in
      t.pending_cycles <- t.pending_cycles + tlb + cache;
      if Cache.writebacks t.cache > 0 then
        t.pending_extra <- Time.(t.pending_extra + writeback_time t);
      la := !la + line
    done
  end

let overhead_time t d =
  flush_pending t;
  t.t_overhead <- Time.(t.t_overhead + d);
  if d > Time.zero then Engine.delay d

let overhead_cycles t cycles = overhead_time t (Params.cpu_cycles t.p cycles)

let blocking t f =
  flush_pending t;
  t.waiting <- true;
  let t0 = Engine.now t.eng in
  let finally () =
    t.waiting <- false;
    t.t_delay <- Time.(t.t_delay + (Engine.now t.eng - t0))
  in
  match f () with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

let flush_range t ~addr ~bytes =
  let cycles = Cache.flush_range t.cache ~addr ~bytes in
  let bus_time = writeback_time t in
  let cpu_time = Params.cpu_cycles t.p cycles in
  overhead_time t Time.(cpu_time + bus_time)

let finish t =
  flush_pending t;
  (* protocol service can steal host time while the final work batch plays
     out; keep flushing until no more arrives during the drain *)
  while t.stolen > Time.zero do
    flush_pending t
  done;
  t.finish_time <- Engine.now t.eng;
  t.finished <- true

let finished t = t.finished

let report t =
  {
    computation = t.t_compute;
    synch_overhead = t.t_overhead;
    synch_delay = t.t_delay;
    finish_time = t.finish_time;
    service_time = t.t_service;
    frozen_time = t.t_frozen;
  }
