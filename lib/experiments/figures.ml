module Time = Cni_engine.Time
module Params = Cni_machine.Params

let quick = ref false
let proc_counts = [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Application inputs                                                  *)
(* ------------------------------------------------------------------ *)

let jacobi_iters full = if !quick then max 4 (full / 2) else full
let cholesky14 = Runner.cholesky Runner.bcsstk14

let bcsstk15 =
  lazy
    (if !quick then Cni_apps.Sparse.stiffness_like ~n:2400 ~dofs:3 ~seed:15
     else Cni_apps.Cholesky.bcsstk15_like ())

(* ------------------------------------------------------------------ *)
(* Generic sweeps                                                      *)
(* ------------------------------------------------------------------ *)

(* speedup + hit ratio vs processor count, both interfaces; each
   configuration's speedup is measured against its own 1-processor run *)
let speedup_sweep ~id ~title ?(notes = []) app =
  let t1_cni = ref Time.zero and t1_std = ref Time.zero in
  let last_cni = ref None in
  let rows =
    List.map
      (fun procs ->
        let rc = Runner.run ~kind:(Runner.cni ()) ~procs app in
        let rs = Runner.run ~kind:Runner.standard ~procs app in
        if procs = 1 then begin
          t1_cni := rc.Runner.elapsed;
          t1_std := rs.Runner.elapsed
        end;
        last_cni := Some rc;
        [
          string_of_int procs;
          Report.f2 (Runner.speedup ~t1:!t1_cni rc);
          Report.f2 (Runner.speedup ~t1:!t1_std rs);
          Report.f1 rc.Runner.hit_ratio;
        ])
      proc_counts
  in
  (* headline metrics and the registry snapshot come from the CNI run at the
     highest processor count — the configuration the paper's plots end on *)
  let metrics, snapshot =
    match !last_cni with
    | Some rc ->
        ( [
            ("cni-hit-ratio-pct", rc.Runner.hit_ratio);
            ("cni-packets", float_of_int rc.Runner.packets);
            ("cni-wire-bytes", float_of_int rc.Runner.wire_bytes);
          ],
          rc.Runner.metrics )
    | None -> ([], [])
  in
  Report.make ~id ~title
    ~columns:[ "procs"; "cni-speedup"; "standard-speedup"; "cache-hit-%" ]
    ~notes ~metrics ~snapshot rows

(* speedup at 8 processors vs shared page size, both interfaces *)
let page_sweep ~id ~title ~pages ?(notes = []) app =
  let rows =
    List.map
      (fun page_bytes ->
        let params = { Params.default with Params.page_bytes } in
        let t1c = (Runner.run ~params ~kind:(Runner.cni ()) ~procs:1 app).Runner.elapsed in
        let t1s = (Runner.run ~params ~kind:Runner.standard ~procs:1 app).Runner.elapsed in
        let rc = Runner.run ~params ~kind:(Runner.cni ()) ~procs:8 app in
        let rs = Runner.run ~params ~kind:Runner.standard ~procs:8 app in
        [
          string_of_int page_bytes;
          Report.f2 (Runner.speedup ~t1:t1c rc);
          Report.f2 (Runner.speedup ~t1:t1s rs);
        ])
      pages
  in
  Report.make ~id ~title ~columns:[ "page-bytes"; "cni-speedup"; "standard-speedup" ] ~notes rows

(* the paper's Tables 2-4: per-category time at 8 processors, 10^9 cycles *)
let overhead_table ~id ~title ?(notes = []) app =
  let rc = Runner.run ~kind:(Runner.cni ()) ~procs:8 app in
  let rs = Runner.run ~kind:Runner.standard ~procs:8 app in
  let total r = Time.(r.Runner.computation + r.Runner.synch_overhead + r.Runner.synch_delay) in
  let rows =
    [
      [ "Synch overhead"; Report.gcycles rc.Runner.synch_overhead; Report.gcycles rs.Runner.synch_overhead ];
      [ "Synch delay"; Report.gcycles rc.Runner.synch_delay; Report.gcycles rs.Runner.synch_delay ];
      [ "Computation"; Report.gcycles rc.Runner.computation; Report.gcycles rs.Runner.computation ];
      [ "Total"; Report.gcycles (total rc); Report.gcycles (total rs) ];
    ]
  in
  Report.make ~id ~title
    ~columns:[ "Category"; "Time-CNI (10^9 cycles)"; "Time-standard (10^9 cycles)" ]
    ~notes
    ~metrics:
      [
        ("cni-elapsed-gcycles", rc.Runner.elapsed_cycles /. 1e9);
        ("standard-elapsed-gcycles", rs.Runner.elapsed_cycles /. 1e9);
        ("cni-hit-ratio-pct", rc.Runner.hit_ratio);
      ]
    ~snapshot:rc.Runner.metrics rows

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let p = Params.default in
  let t fmt = Format.asprintf "%a" Time.pp fmt in
  let rows =
    [
      [ "CPU Frequency"; Printf.sprintf "%d MHz" (p.Params.cpu_hz / 1_000_000) ];
      [ "Primary Cache Access Time"; "1 cycle" ];
      [ "Primary Cache Size"; Printf.sprintf "%dK unified" (p.Params.l1_bytes / 1024) ];
      [ "Secondary Cache Access Time"; Printf.sprintf "%d cycles" p.Params.l2_access_cycles ];
      [ "Secondary Cache Size"; Printf.sprintf "%d MB unified" (p.Params.l2_bytes / 1048576) ];
      [ "Cache Organization"; "Direct-mapped" ];
      [ "Cache Policy"; "Write-back" ];
      [ "Memory Latency"; Printf.sprintf "%d cycles" p.Params.memory_latency_cycles ];
      [ "Bus Acquisition Time"; Printf.sprintf "%d cycles" p.Params.bus_acquire_cycles ];
      [ "Bus Transfer Rate"; Printf.sprintf "%d cycles per word" p.Params.bus_cycles_per_word ];
      [ "Bus Frequency"; Printf.sprintf "%d MHz" (p.Params.bus_hz / 1_000_000) ];
      [ "Switch Latency"; t p.Params.switch_latency ];
      [ "Network Processor Frequency"; Printf.sprintf "%d MHz" (p.Params.nic_hz / 1_000_000) ];
      [ "Network Latency"; t p.Params.link_latency ];
      [ "Interrupt Latency"; t p.Params.interrupt_latency ];
      [ "Message Cache Size"; Printf.sprintf "%d KB" (p.Params.message_cache_bytes / 1024) ];
    ]
  in
  Report.make ~id:"table1" ~title:"Simulation Parameters" ~columns:[ "Parameter"; "Value" ]
    ~notes:
      [
        "network latency read as 150 ns and interrupt latency as 40 us (OCR-garbled rows; \
         DESIGN.md section 4)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Jacobi: figures 2-5, table 2                                        *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  speedup_sweep ~id:"fig2" ~title:"Jacobi 128x128: speedup & network cache hit ratio"
    ~notes:[ "paper: both configurations mediocre at 32 procs; CNI degrades less" ]
    (Runner.jacobi ~n:128 ~iterations:(jacobi_iters 30))

let fig3 () =
  speedup_sweep ~id:"fig3" ~title:"Jacobi 256x256: speedup & network cache hit ratio"
    (Runner.jacobi ~n:256 ~iterations:(jacobi_iters 24))

let fig4 () =
  speedup_sweep ~id:"fig4" ~title:"Jacobi 1024x1024: speedup & network cache hit ratio"
    ~notes:[ "paper: high hit ratio (96-99.5%); CNI modestly above standard" ]
    (Runner.jacobi ~n:1024 ~iterations:(jacobi_iters 16))

let fig5 () =
  page_sweep ~id:"fig5" ~title:"Page-size sensitivity: 8-processor Jacobi 1024x1024"
    ~pages:[ 1024; 2048; 4096; 8192; 16384 ]
    ~notes:[ "paper: CNI less sensitive to page size (lower page-transfer cost)" ]
    (Runner.jacobi ~n:1024 ~iterations:(jacobi_iters 12))

let table2 () =
  overhead_table ~id:"table2" ~title:"Overhead for 8-processor Jacobi 1024x1024"
    ~notes:[ "paper: CNI lowers synch overhead and delay; computation unchanged" ]
    (Runner.jacobi ~n:1024 ~iterations:(jacobi_iters 16))

(* ------------------------------------------------------------------ *)
(* Water: figures 6-9, table 3                                         *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  speedup_sweep ~id:"fig6" ~title:"Water 64 molecules: speedup & network cache hit ratio"
    (Runner.water ~molecules:64)

let fig7 () =
  speedup_sweep ~id:"fig7" ~title:"Water 216 molecules: speedup & network cache hit ratio"
    ~notes:[ "paper: hit ratio sensitive to processor count; improved scalability for CNI" ]
    (Runner.water ~molecules:216)

let fig8 () =
  speedup_sweep ~id:"fig8" ~title:"Water 343 molecules: speedup & network cache hit ratio"
    (Runner.water ~molecules:343)

let fig9 () =
  page_sweep ~id:"fig9" ~title:"Page-size sensitivity: 8-processor Water 216 molecules"
    ~pages:[ 1024; 2048; 4096; 8192 ]
    ~notes:[ "paper: CNI less sensitive despite some false sharing at larger pages" ]
    (Runner.water ~molecules:216)

let table3 () =
  overhead_table ~id:"table3" ~title:"Overhead for 8-processor Water 216 molecules"
    (Runner.water ~molecules:216)

(* ------------------------------------------------------------------ *)
(* Cholesky: figures 10-12, table 4                                    *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  speedup_sweep ~id:"fig10" ~title:"Cholesky bcsstk14-like: speedup & network cache hit ratio"
    ~notes:[ "paper: receive caching helps migratory pages; largest CNI gain of the three" ]
    cholesky14

let fig11 () =
  speedup_sweep ~id:"fig11" ~title:"Cholesky bcsstk15-like: speedup & network cache hit ratio"
    ~notes:[ "paper: better speedup than bcsstk14 because of the larger matrix" ]
    (Runner.cholesky bcsstk15)

let fig12 () =
  page_sweep ~id:"fig12" ~title:"Page-size sensitivity: 8-processor Cholesky bcsstk14-like"
    ~pages:[ 1024; 2048; 4096; 8192 ]
    ~notes:[ "paper: very page-size sensitive; transmit/receive caching reduce the sensitivity" ]
    cholesky14

let table4 () =
  overhead_table ~id:"table4" ~title:"Overhead for 8-processor Cholesky bcsstk14-like"
    ~notes:[ "paper: synchronization delay dominates this application" ]
    cholesky14

(* ------------------------------------------------------------------ *)
(* Figure 13: Message Cache size sensitivity                           *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  let sizes_kb = [ 8; 16; 32; 64; 128; 256; 512; 1024 ] in
  let last = ref None in
  let hit ~mc_kb app =
    (* grow the board so cache + handler segments always fit: the sweep asks
       for message caches up to the whole 1 MB OSIRIS memory *)
    let params =
      { Params.default with
        Params.nic_memory_bytes = (mc_kb * 1024) + (256 * 1024)
      }
    in
    let r = Runner.run ~params ~kind:(Runner.cni ~mc_bytes:(mc_kb * 1024) ()) ~procs:8 app in
    last := Some r;
    r.Runner.hit_ratio
  in
  let rows =
    List.map
      (fun kb ->
        [
          string_of_int kb;
          Report.f1 (hit ~mc_kb:kb (Runner.jacobi ~n:1024 ~iterations:(jacobi_iters 12)));
          Report.f1 (hit ~mc_kb:kb (Runner.water ~molecules:216));
          Report.f1 (hit ~mc_kb:kb cholesky14);
        ])
      sizes_kb
  in
  let metrics, snapshot =
    match !last with
    | Some r -> ([ ("final-hit-ratio-pct", r.Runner.hit_ratio) ], r.Runner.metrics)
    | None -> ([], [])
  in
  Report.make ~id:"fig13"
    ~title:"Network cache hit ratio vs Message Cache size (8 processors)"
    ~columns:[ "mc-KB"; "jacobi-hit-%"; "water-hit-%"; "cholesky-hit-%" ]
    ~notes:
      [
        "paper: Jacobi/Water saturate just beyond 32 KB; Cholesky needs ~512 KB to reach ~90%";
      ]
    ~metrics ~snapshot rows

(* ------------------------------------------------------------------ *)
(* Figure 14: node-to-node latency                                     *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  let sizes = [ 0; 64; 128; 256; 512; 1024; 2048; 4096 ] in
  let points = Microbench.sweep ~sizes () in
  let rows =
    List.map
      (fun { Microbench.bytes; cni_us; standard_us; reduction_pct } ->
        [ string_of_int bytes; Report.f1 cni_us; Report.f1 standard_us; Report.f1 reduction_pct ])
      points
  in
  Report.make ~id:"fig14" ~title:"Node-to-node latency, CNI (100% cache hit) vs standard"
    ~columns:[ "message-bytes"; "cni-us"; "standard-us"; "reduction-%" ]
    ~notes:
      [
        "paper: ~33% lower latency for a 4 KB page-sized transfer";
        "the waiting receiver polls a CNI board but is interrupted by the standard one, \
         so small messages gain proportionally more here";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 5: unrestricted ATM cell size                                 *)
(* ------------------------------------------------------------------ *)

let table5 () =
  let unrestricted = { Params.default with Params.cell_payload_bytes = 1 lsl 26 } in
  let improvement app =
    let t = (Runner.run ~kind:(Runner.cni ()) ~procs:8 app).Runner.elapsed in
    let t' = (Runner.run ~params:unrestricted ~kind:(Runner.cni ()) ~procs:8 app).Runner.elapsed in
    100. *. (Time.to_s_float t -. Time.to_s_float t') /. Time.to_s_float t
  in
  let rows =
    [
      [
        "Jacobi 1024x1024";
        Report.f2 (improvement (Runner.jacobi ~n:1024 ~iterations:(jacobi_iters 16)));
      ];
      [ "Water 343 molecules"; Report.f2 (improvement (Runner.water ~molecules:343)) ];
      [ "Cholesky bcsstk14-like"; Report.f2 (improvement cholesky14) ];
    ]
  in
  Report.make ~id:"table5"
    ~title:"Performance improvement with ATM of unrestricted cell size (8 processors)"
    ~columns:[ "Application"; "% improvement" ]
    ~notes:[ "paper: 5.69 / 13.31 / 25.29 — fragmentation overhead is a major detriment" ]
    rows

let all =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("table2", table2);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("table3", table3);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("table4", table4);
    ("fig13", fig13);
    ("fig14", fig14);
    ("table5", table5);
  ]
