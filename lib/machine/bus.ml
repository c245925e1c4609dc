module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Time = Cni_engine.Time

type dir = Cpu_writeback | Dma_to_memory | Dma_from_memory

type stats = { dma_transfers : int; dma_bytes : int; writeback_lines : int }

type t = {
  eng : Engine.t;
  p : Params.t;
  line_bytes : int;
  line_time : Time.t;  (* bus occupancy of one line write-back *)
  sem : Sync.Semaphore.t;
  mutable snoopers : (dir:dir -> addr:int -> bytes:int -> unit) list;
  mutable s_dma_transfers : int;
  mutable s_dma_bytes : int;
  mutable s_writeback_lines : int;
}

let create eng p =
  {
    eng;
    p;
    line_bytes = p.Params.line_bytes;
    line_time = Params.bus_transfer p ~bytes:p.Params.line_bytes;
    sem = Sync.Semaphore.create 1;
    snoopers = [];
    s_dma_transfers = 0;
    s_dma_bytes = 0;
    s_writeback_lines = 0;
  }

let params t = t.p
let register_snooper t f = t.snoopers <- f :: t.snoopers

(* a plain recursion over the list: no closure is built per notification *)
let rec notify snoopers ~dir ~addr ~bytes =
  match snoopers with
  | [] -> ()
  | f :: rest ->
      f ~dir ~addr ~bytes;
      notify rest ~dir ~addr ~bytes

let writeback_line t la =
  t.s_writeback_lines <- t.s_writeback_lines + 1;
  notify t.snoopers ~dir:Cpu_writeback ~addr:la ~bytes:t.line_bytes;
  t.line_time

let dma_time t ~bytes = Params.bus_transfer t.p ~bytes

let dma_then t ~dir ~addr ~bytes k =
  (match dir with
  | Dma_to_memory | Dma_from_memory -> ()
  | Cpu_writeback -> invalid_arg "Bus.dma: Cpu_writeback is not a DMA direction");
  Sync.Semaphore.acquire_then t.eng t.sem (fun () ->
      Engine.after t.eng (dma_time t ~bytes) (fun () ->
          t.s_dma_transfers <- t.s_dma_transfers + 1;
          t.s_dma_bytes <- t.s_dma_bytes + bytes;
          notify t.snoopers ~dir ~addr ~bytes;
          Sync.Semaphore.release t.sem;
          k ()))

let dma t ~dir ~addr ~bytes = Engine.await (fun _ k -> dma_then t ~dir ~addr ~bytes k)

let stats t =
  {
    dma_transfers = t.s_dma_transfers;
    dma_bytes = t.s_dma_bytes;
    writeback_lines = t.s_writeback_lines;
  }
