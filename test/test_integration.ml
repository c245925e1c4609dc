(* End-to-end shape tests: the qualitative results the paper reports must
   hold on scaled-down runs — who wins, in which direction, and roughly by
   how much. These exercise the whole stack (engine, machine, ATM,
   PATHFINDER, NIC, DSM, applications, experiment runner). *)

module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Mc = Cni_nic.Message_cache
module Sparse = Cni_apps.Sparse
module Runner = Cni_experiments.Runner
module Microbench = Cni_experiments.Microbench
module Report = Cni_experiments.Report

let check = Alcotest.check
let checkb = check Alcotest.bool

let sec t = Time.to_s_float t

(* small workloads with the same sharing patterns as the paper's *)
let jacobi = Runner.jacobi ~n:128 ~iterations:10
let water = Runner.water ~molecules:64
let cholesky = Runner.cholesky (lazy (Sparse.stiffness_like ~n:360 ~dofs:3 ~seed:3))

let elapsed ~kind ~procs app = (Runner.run ~kind ~procs app).Runner.elapsed

(* ------------------------------------------------------------------ *)
(* Headline orderings                                                  *)
(* ------------------------------------------------------------------ *)

let test_cni_beats_standard_cholesky () =
  let c = elapsed ~kind:(Runner.cni ()) ~procs:4 cholesky in
  let s = elapsed ~kind:Runner.standard ~procs:4 cholesky in
  checkb "CNI faster on the fine-grained app" true (sec c < sec s)

let test_cni_beats_standard_water () =
  let c = elapsed ~kind:(Runner.cni ()) ~procs:4 water in
  let s = elapsed ~kind:Runner.standard ~procs:4 water in
  checkb "CNI no slower on water" true (sec c <= sec s *. 1.01)

let test_gap_ordering_matches_paper () =
  (* relative CNI gain: Jacobi < Cholesky (coarse vs fine grained) *)
  let gain app =
    let c = sec (elapsed ~kind:(Runner.cni ()) ~procs:4 app) in
    let s = sec (elapsed ~kind:Runner.standard ~procs:4 app) in
    s /. c
  in
  let gj = gain jacobi and gc = gain cholesky in
  checkb "Cholesky gains more than Jacobi" true (gc > gj)

let test_parallel_speedup_exists () =
  let t1 = elapsed ~kind:(Runner.cni ()) ~procs:1 water in
  let t4 = elapsed ~kind:(Runner.cni ()) ~procs:4 water in
  checkb "4 procs faster than 1" true (sec t4 < sec t1)

(* ------------------------------------------------------------------ *)
(* Mechanism ablations                                                 *)
(* ------------------------------------------------------------------ *)

let test_message_cache_helps () =
  let with_mc = elapsed ~kind:(Runner.cni ()) ~procs:4 cholesky in
  let without = elapsed ~kind:(Runner.cni ~mc_bytes:0 ()) ~procs:4 cholesky in
  checkb "message cache saves time" true (sec with_mc < sec without)

let test_aih_helps () =
  let with_aih = elapsed ~kind:(Runner.cni ()) ~procs:4 water in
  let without = elapsed ~kind:(Runner.cni ~aih:false ()) ~procs:4 water in
  checkb "on-board handlers save time" true (sec with_aih < sec without)

let test_invalidate_snoop_hurts_hit_ratio () =
  let hit mode =
    (Runner.run ~kind:(Runner.cni ~mc_mode:mode ()) ~procs:4 jacobi).Runner.hit_ratio
  in
  checkb "write-update keeps more buffers valid" true (hit Mc.Update > hit Mc.Invalidate)

let test_osiris_between () =
  (* the intermediate design point lands between the endpoints on the
     user-level messaging path (its DSM runs stay near the standard board:
     it still interrupts per packet, which is the CNI's point) *)
  let lat kind = Time.to_us_float (Microbench.latency ~kind ~bytes:2048 ()) in
  let c = lat (Runner.cni ~aih:false ()) in
  let o = lat Runner.osiris in
  let s = lat Runner.standard in
  checkb "CNI < OSIRIS" true (c < o);
  checkb "OSIRIS < standard" true (o < s)

let test_unrestricted_cells_help () =
  let restricted = elapsed ~kind:(Runner.cni ()) ~procs:4 cholesky in
  let params = { Params.default with Params.cell_payload_bytes = 1 lsl 26 } in
  let unrestricted =
    (Runner.run ~params ~kind:(Runner.cni ()) ~procs:4 cholesky).Runner.elapsed
  in
  checkb "fragmentation overhead is real (Table 5)" true (sec unrestricted < sec restricted)

(* ------------------------------------------------------------------ *)
(* Microbenchmark (Figure 14)                                          *)
(* ------------------------------------------------------------------ *)

let test_latency_monotonic_and_reduced () =
  let points = Microbench.sweep ~sizes:[ 0; 512; 4096 ] () in
  (match points with
  | [ p0; p1; p2 ] ->
      checkb "cni latency grows with size" true
        (p0.Microbench.cni_us < p1.Microbench.cni_us && p1.Microbench.cni_us < p2.Microbench.cni_us);
      checkb "standard latency grows with size" true
        (p0.Microbench.standard_us < p2.Microbench.standard_us);
      checkb "cni below standard everywhere" true
        (List.for_all (fun p -> p.Microbench.cni_us < p.Microbench.standard_us) points);
      (* the paper's headline: ~33% at 4 KB; accept a generous band *)
      checkb "4KB reduction in 20..60%" true
        (p2.Microbench.reduction_pct > 20.0 && p2.Microbench.reduction_pct < 60.0);
      (* the absolute gap grows with message size (the elided DMA scales) *)
      checkb "absolute saving grows with size" true
        (p2.Microbench.standard_us -. p2.Microbench.cni_us
        > p0.Microbench.standard_us -. p0.Microbench.cni_us)
  | _ -> Alcotest.fail "expected three points")

(* ------------------------------------------------------------------ *)
(* Determinism and accounting sanity                                   *)
(* ------------------------------------------------------------------ *)

let test_runs_deterministic () =
  let a = elapsed ~kind:(Runner.cni ()) ~procs:3 water in
  let b = elapsed ~kind:(Runner.cni ()) ~procs:3 water in
  check Alcotest.int "bit-identical simulated time" (Time.to_ps a) (Time.to_ps b)

let test_hit_ratio_bounds () =
  List.iter
    (fun procs ->
      let r = Runner.run ~kind:(Runner.cni ()) ~procs cholesky in
      checkb "ratio within [0,100]" true (r.Runner.hit_ratio >= 0.0 && r.Runner.hit_ratio <= 100.0))
    [ 1; 2; 4 ]

let test_mc_size_improves_hit_ratio () =
  let hit kb = (Runner.run ~kind:(Runner.cni ~mc_bytes:(kb * 1024) ()) ~procs:4 cholesky).Runner.hit_ratio in
  checkb "bigger cache, no worse ratio (fig 13 trend)" true (hit 512 >= hit 8 -. 1.0)

(* fault injection: a frame whose header fails Wire decoding must be dropped
   and counted at the board (rx_undecodable), never reach a handler and never
   raise out of the receive fiber *)
let test_corrupted_header_detected () =
  let module Cluster = Cni_cluster.Cluster in
  let module Node = Cni_cluster.Node in
  let module Fabric = Cni_atm.Fabric in
  let cluster : unit Cluster.t =
    Cluster.create ~nic_kind:(Runner.cni ()) ~nodes:2 ()
  in
  let nic1 = Node.nic (Cluster.node cluster 1) in
  let rejected = ref 0 in
  Cni_nic.Nic.set_default_handler nic1 (fun _ _ -> incr rejected);
  Cluster.run_app cluster (fun node ->
      if Node.id node = 0 then begin
        let header =
          Cni_nic.Wire.encode
            {
              Cni_nic.Wire.kind = 1;
              cacheable = false;
              has_data = false;
              src = 0;
              channel = 40;
              obj = 0;
              aux = 0;
            }
        in
        (* corrupt the magic *)
        Bytes.set header 0 '\xEE';
        Cni_nic.Nic.send (Node.nic node) ~dst:1 ~header ~body_bytes:0 ~data:Cni_nic.Nic.No_data
          ~payload:()
      end);
  Alcotest.(check int) "corrupted frame never reaches a handler" 0 !rejected;
  Alcotest.(check int) "counted as rx_undecodable" 1 (Cni_nic.Nic.rx_undecodable nic1);
  Alcotest.(check int) "not counted as unmatched" 0
    (Cni_nic.Nic.stats nic1).Cni_nic.Nic.unmatched

let test_report_rendering () =
  let r =
    Report.make ~id:"x" ~title:"t" ~columns:[ "a"; "bb" ] ~notes:[ "n" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let text = Report.to_text r in
  checkb "title present" true
    (try
       ignore (Str.search_forward (Str.regexp_string "== x: t ==") text 0);
       true
     with Not_found -> false);
  checkb "note present" true
    (try
       ignore (Str.search_forward (Str.regexp_string "note: n") text 0);
       true
     with Not_found -> false)

let test_report_csv () =
  let dir = Filename.temp_file "cni" "" in
  Sys.remove dir;
  let r = Report.make ~id:"csvtest" ~title:"t" ~columns:[ "a"; "b" ] [ [ "1"; "x,y" ] ] in
  Report.write_csv ~dir r;
  let ic = open_in (Filename.concat dir "csvtest.csv") in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  check Alcotest.string "header" "a,b" l1;
  check Alcotest.string "escaped row" "1,\"x,y\"" l2

(* ------------------------------------------------------------------ *)
(* Build step (what doctor and run both admit)                          *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let builds what r =
  match r with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s rejected: %s" what msg

let rejects what ~naming r =
  match r with
  | Ok _ -> Alcotest.failf "%s built" what
  | Error msg ->
      checkb (Printf.sprintf "%s names %S (%s)" what naming msg) true (contains msg naming)

let test_build_step () =
  builds "one node" (Runner.build ~kind:(Runner.cni ()) ~procs:1 ());
  rejects "300 nodes with the NIC-tree barrier" ~naming:"256 nodes"
    (Runner.build ~barrier_impl:`Nic_collective ~kind:(Runner.cni ()) ~procs:300 ());
  (* the DSM handlers take 9 KB of the 1 MB board, leaving 1015 KB *)
  builds "a 1015 KB Message Cache"
    (Runner.build ~kind:(Runner.cni ~mc_bytes:(1015 * 1024) ()) ~procs:4 ());
  rejects "a 1016 KB Message Cache" ~naming:"board memory"
    (Runner.build ~kind:(Runner.cni ~mc_bytes:(1016 * 1024) ()) ~procs:4 ());
  (* a fault model is checked whole, not only when it has a crash schedule *)
  let window = { Cni_atm.Faults.w_node = 99; w_from = Time.us 10; w_upto = Time.us 20 } in
  rejects "a link-down window on node 99 of 4" ~naming:"node 99"
    (Runner.build
       ~faults:{ Cni_atm.Faults.none with Cni_atm.Faults.link_down = [ window ] }
       ~kind:(Runner.cni ()) ~procs:4 ())

(* each protocol stack claims its own wire channel, and none of them takes
   the reliable-delivery ack channel *)
let test_stack_channels () =
  let channels =
    [
      Cni_dsm.Protocol.channel;
      Cni_mp.Mp.channel;
      Cni_mp.Mp.collectives_channel;
      Cni_dsm.Lrc.collectives_channel;
    ]
  in
  check Alcotest.int "distinct" (List.length channels)
    (List.length (List.sort_uniq compare channels));
  checkb "ack channel reserved" false (List.mem Cni_nic.Reliable.ack_channel channels)

let () =
  Alcotest.run "integration"
    [
      ( "orderings",
        [
          Alcotest.test_case "CNI beats standard (cholesky)" `Quick test_cni_beats_standard_cholesky;
          Alcotest.test_case "CNI no slower (water)" `Quick test_cni_beats_standard_water;
          Alcotest.test_case "gap ordering jacobi < cholesky" `Quick test_gap_ordering_matches_paper;
          Alcotest.test_case "parallel speedup exists" `Quick test_parallel_speedup_exists;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "message cache helps" `Quick test_message_cache_helps;
          Alcotest.test_case "AIH helps" `Quick test_aih_helps;
          Alcotest.test_case "invalidate snoop hurts" `Quick test_invalidate_snoop_hurts_hit_ratio;
          Alcotest.test_case "unrestricted cells help" `Quick test_unrestricted_cells_help;
          Alcotest.test_case "OSIRIS between endpoints" `Quick test_osiris_between;
        ] );
      ( "microbench",
        [ Alcotest.test_case "latency curves (fig 14)" `Quick test_latency_monotonic_and_reduced ]
      );
      ( "sanity",
        [
          Alcotest.test_case "deterministic" `Quick test_runs_deterministic;
          Alcotest.test_case "hit ratio bounds" `Quick test_hit_ratio_bounds;
          Alcotest.test_case "MC size monotonic-ish" `Quick test_mc_size_improves_hit_ratio;
          Alcotest.test_case "corrupted header detected" `Quick test_corrupted_header_detected;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "report CSV" `Quick test_report_csv;
        ] );
      ( "build",
        [
          Alcotest.test_case "install path admits and rejects" `Quick test_build_step;
          Alcotest.test_case "stacks use distinct wire channels" `Quick test_stack_channels;
        ] );
    ]
