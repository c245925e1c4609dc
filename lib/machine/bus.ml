module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync
module Time = Cni_engine.Time
module Pool = Cni_engine.Pool

type dir = Cpu_writeback | Dma_to_memory | Dma_from_memory

type stats = { dma_transfers : int; dma_bytes : int; writeback_lines : int }

(* The DMAs waiting for the bus or holding it are pooled records: int
   columns for the direction, address, size and continuation stage and
   slot (a fiber's continuation is held on the engine's closure stage).
   They and the bus's one engine stage are made at the first DMA, so a bus
   that never transfers costs nothing; a stage event's slot is a record's
   and a step's, [2x + 1] once the transfer is under way. *)
type xfers = {
  pool : Pool.t;
  mutable to_memory : bool array;
  mutable addr : int array;
  mutable bytes : int array;
  mutable stage : int array;
  mutable slot : int array;
  mutable st : Engine.stage;
}

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
  mutable xfers : xfers option;
}

let dma_time t ~bytes = Params.bus_transfer t.p ~bytes

let start t xs x = Engine.after_stage t.eng (dma_time t ~bytes:xs.bytes.(x)) xs.st ((2 * x) + 1)

(* a plain recursion over the list: no closure is built per notification *)
let rec notify snoopers ~dir ~addr ~bytes =
  match snoopers with
  | [] -> ()
  | f :: rest ->
      f ~dir ~addr ~bytes;
      notify rest ~dir ~addr ~bytes

let transferred t xs x =
  let bytes = xs.bytes.(x) and addr = xs.addr.(x) in
  let dir = if xs.to_memory.(x) then Dma_to_memory else Dma_from_memory in
  t.s_dma_transfers <- t.s_dma_transfers + 1;
  t.s_dma_bytes <- t.s_dma_bytes + bytes;
  notify t.snoopers ~dir ~addr ~bytes;
  Sync.Semaphore.release t.sem;
  let stage = xs.stage.(x) and slot = xs.slot.(x) in
  Pool.release xs.pool x;
  Engine.run_stage t.eng stage slot

let xfers t =
  match t.xfers with
  | Some xs -> xs
  | None ->
      let xs =
        { pool = Pool.create (); to_memory = [||]; addr = [||]; bytes = [||]; stage = [||];
          slot = [||]; st = 0 }
      in
      (* step 0: the bus came free, start the transfer; step 1: it ended *)
      xs.st <-
        Engine.register t.eng (fun v ->
            if v land 1 = 0 then start t xs (v lsr 1) else transferred t xs (v lsr 1));
      t.xfers <- Some xs;
      xs

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
    xfers = None;
  }

let params t = t.p
let register_snooper t f = t.snoopers <- f :: t.snoopers

let writeback_line t la =
  t.s_writeback_lines <- t.s_writeback_lines + 1;
  notify t.snoopers ~dir:Cpu_writeback ~addr:la ~bytes:t.line_bytes;
  t.line_time

let to_memory = function
  | Dma_to_memory -> true
  | Dma_from_memory -> false
  | Cpu_writeback -> invalid_arg "Bus.dma: Cpu_writeback is not a DMA direction"

(* a transfer record; the bus's FIFO hands it the bus, at once or at the
   release that frees it ([acquired]) *)
let transfer t ~to_memory ~addr ~bytes stage slot =
  let xs = xfers t in
  let x = Pool.alloc xs.pool in
  if x >= Array.length xs.addr then begin
    let n = Pool.capacity xs.pool in
    xs.to_memory <- Pool.extend xs.to_memory n false;
    xs.addr <- Pool.extend xs.addr n 0;
    xs.bytes <- Pool.extend xs.bytes n 0;
    xs.stage <- Pool.extend xs.stage n 0;
    xs.slot <- Pool.extend xs.slot n 0
  end;
  xs.to_memory.(x) <- to_memory;
  xs.addr.(x) <- addr;
  xs.bytes.(x) <- bytes;
  xs.stage.(x) <- stage;
  xs.slot.(x) <- slot;
  if Sync.Semaphore.acquire_stage t.eng t.sem xs.st (2 * x) then start t xs x

let dma_stage t ~dir ~addr ~bytes stage slot =
  transfer t ~to_memory:(to_memory dir) ~addr ~bytes stage slot

(* the direction is checked before the continuation takes a slot *)
let dma t ~dir ~addr ~bytes =
  let to_memory = to_memory dir in
  Engine.await (fun _ k ->
      transfer t ~to_memory ~addr ~bytes Engine.closure_stage (Engine.hold t.eng k))

let stats t =
  {
    dma_transfers = t.s_dma_transfers;
    dma_bytes = t.s_dma_bytes;
    writeback_lines = t.s_writeback_lines;
  }
