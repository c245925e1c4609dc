(* Layer kernels: each layer's public functions timed with Bechamel at the
   shapes the workload uses, as host nanoseconds and minor-heap words per
   call (OLS estimates over Bechamel's growing run counts). *)

module Heap = Cni_engine.Heap
module Rng = Cni_engine.Rng
module Params = Cni_machine.Params
module Cache = Cni_machine.Cache
module Classifier = Cni_pathfinder.Classifier
module Aal5 = Cni_atm.Aal5
module Topology = Cni_atm.Topology
module Diff = Cni_dsm.Diff
module Aih_ir = Cni_aih.Aih_ir
module Aih_verify = Cni_aih.Aih_verify
module Aih_exec = Cni_aih.Aih_exec
module Nic = Cni_nic.Nic
module Reliable_ir = Cni_nic.Reliable_ir
module Hist = Cni_apps.Kv_serve.Hist

type cost = { ns : float; words : float }

let measure name f =
  Util.span ("kernel:" ^ name) (fun () ->
      let open Bechamel in
      let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~stabilize:false ~kde:None () in
      let clock = Toolkit.Instance.monotonic_clock in
      let alloc = Toolkit.Instance.minor_allocated in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Benchmark.all cfg [ clock; alloc ] (Test.make ~name (Staged.stage f)) in
      let estimate instance =
        Hashtbl.fold
          (fun _ b acc ->
            match Analyze.OLS.estimates (Analyze.one ols instance b) with
            | Some [ e ] -> e
            | _ -> acc)
          results Float.nan
      in
      { ns = estimate clock; words = estimate alloc })

(* one event's worth of queue work at the workload's deepest queue: take the
   earliest entry and schedule a successor later in time, through the
   engine's own path (min_key, pop_min_value, add) *)
let heap ~depth =
  let h = Heap.create () in
  let rng = Rng.create ~seed:1 in
  for seq = 1 to max 1 depth do
    Heap.add h ~key:(Rng.int rng 1_000_000) ~seq ()
  done;
  let gaps = Array.init 4096 (fun _ -> 1 + Rng.int rng 1_000_000) in
  let seq = ref depth and i = ref 0 in
  measure "heap add+pop" (fun () ->
      let key = Heap.min_key h in
      Heap.pop_min_value h;
      incr seq;
      i := (!i + 1) land 4095;
      Heap.add h ~key:(key + gaps.(!i)) ~seq:!seq ())

(* a streaming line walk over 1 MB, alternating loads and stores: the shape
   of a 1024-wide Jacobi strip (two planes of 64 rows) on one node *)
let cache () =
  let p = Params.default in
  let c = Cache.create p in
  let lines = 1024 * 1024 / p.Params.line_bytes in
  let i = ref 0 in
  measure "cache access_line" (fun () ->
      i := (!i + 1) mod lines;
      ignore (Cache.access_line c ~addr:(!i * p.Params.line_bytes) ~write:(!i land 1 = 0)))

(* the channel patterns the workload installs, against its frames' headers *)
let classify ~patterns ~headers =
  let cls = Classifier.create () in
  List.iteri (fun i pattern -> ignore (Classifier.add cls pattern i)) patterns;
  let headers = Array.of_list headers and i = ref 0 in
  measure "classify" (fun () ->
      i := (!i + 1) mod Array.length headers;
      ignore (Classifier.classify cls headers.(!i)))

let aal5 ~bytes =
  let frame = Bytes.make bytes 'x' and r = Aal5.Reassembler.create () in
  measure (Printf.sprintf "aal5 segment+reassemble %dB" bytes) (fun () ->
      List.iter
        (fun cell -> ignore (Aal5.Reassembler.push_result r cell))
        (Aal5.segment ~vpi:0 ~vci:7 frame))

(* one page whose every third word changed since its twin *)
let diff ~page_bytes =
  let twin = Bytes.make page_bytes '\000' in
  let current = Bytes.copy twin and target = Bytes.copy twin in
  for w = 0 to (page_bytes / Diff.word_bytes) - 1 do
    if w mod 3 = 0 then Bytes.set_int64_ne current (w * Diff.word_bytes) (Int64.of_int (w + 1))
  done;
  measure "diff create+apply" (fun () -> Diff.apply (Diff.create ~twin ~current) target)

(* admission of both reliable-delivery programs for the cluster's size *)
let verify ~size =
  let budget = Params.line_rate_budget Params.default in
  let rx = Reliable_ir.rx_program ~size and tx = Reliable_ir.tx_program ~size in
  measure "verify reliable firmware" (fun () ->
      ignore (Aih_verify.verify ~cell_budget:budget rx);
      ignore (Aih_verify.verify ~cell_budget:budget tx))

(* one activation of the reliable receive handler on a fresh in-order frame *)
let exec ~size =
  let prog = Reliable_ir.rx_program ~size in
  let mem = Array.make prog.Aih_ir.seg_words 0 in
  let inputs = Array.make prog.Aih_ir.inputs 0 in
  let view = Array.make Nic.header_view_words 0 in
  view.(0) <- Reliable_ir.k_data;
  view.(1) <- 1;
  view.(2) <- Reliable_ir.default_channel;
  let services =
    {
      Aih_exec.sv_send = (fun ~dst:_ ~kind:_ ~obj:_ ~value:_ -> ());
      sv_wake = (fun ~seq:_ ~value:_ -> ());
      sv_charge = ignore;
    }
  in
  let seq = ref 0 in
  measure "exec reliable rx" (fun () ->
      incr seq;
      view.(3) <- !seq;
      ignore (Aih_exec.run ~view prog ~mem ~inputs services))

let route ~nodes =
  let topo = Topology.of_kind (Topology.Torus { dims = None }) ~nodes in
  let rng = Rng.create ~seed:3 in
  let src = Array.init 4096 (fun _ -> Rng.int rng nodes) in
  let dst = Array.map (fun s -> (s + 1 + Rng.int rng (nodes - 1)) mod nodes) src in
  let i = ref 0 in
  measure "torus route" (fun () ->
      i := (!i + 1) land 4095;
      ignore (Topology.route topo ~src:src.(!i) ~dst:dst.(!i)))

(* response latencies in ns, 5 to 205 us *)
let hist () =
  let h = Hist.create () and rng = Rng.create ~seed:5 in
  let samples = Array.init 4096 (fun _ -> 5_000 + Rng.int rng 200_000) in
  let i = ref 0 in
  measure "hist observe" (fun () ->
      i := (!i + 1) land 4095;
      Hist.observe h samples.(!i))
