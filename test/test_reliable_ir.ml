(* Firmware-compiled reliable delivery (Reliable_ir) against the closure
   layer: certificate sanity, and — the point of the module — behavioural
   parity. The lockstep ring in Reliable_flow puts one frame at a time on
   the fabric, so a seeded fault model hands both implementations the same
   per-frame verdicts; delivery outcomes and per-node protocol counters
   must then match exactly, across loss, corruption and crash/restart
   schedules. *)

module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Faults = Cni_atm.Faults
module Verify = Cni_aih.Aih_verify
module Ir = Cni_aih.Aih_ir
module Nic = Cni_nic.Nic
module Reliable_ir = Cni_nic.Reliable_ir
module Flow = Cni_experiments.Reliable_flow

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Generated-firmware certificates                                     *)
(* ------------------------------------------------------------------ *)

let test_firmware_certs () =
  let budget = Params.line_rate_budget Params.default in
  (match Verify.verify ~cell_budget:budget (Reliable_ir.rx_program ~size:64) with
  | Error rjs -> Alcotest.failf "rx firmware rejected: %s" (Verify.explain_all rjs)
  | Ok c ->
      checkb "rx WCET fits the line-rate budget" true (c.Verify.wcet_nic_cycles <= budget);
      checkb "rx cert carries a per-byte bound" true (c.Verify.wcet_per_byte_milli > 0));
  match Verify.verify ~cell_budget:budget (Reliable_ir.tx_program ~size:64) with
  | Error rjs -> Alcotest.failf "tx firmware rejected: %s" (Verify.explain_all rjs)
  | Ok c ->
      (* the stamp is an episode handler: per-packet, no per-byte obligation *)
      checki "tx per-byte bound" 0 c.Verify.wcet_per_byte_milli

(* the rx program's cost is what line-rate admission is about: it must not
   scale with cluster size (the segment does, the WCET must not) *)
let test_rx_wcet_size_independent () =
  let wcet size =
    match Verify.verify (Reliable_ir.rx_program ~size) with
    | Ok c -> c.Verify.wcet_nic_cycles
    | Error rjs -> Alcotest.failf "rx/%d rejected: %s" size (Verify.explain_all rjs)
  in
  checki "same WCET at 2 and 256 nodes" (wcet 2) (wcet 256)

(* ------------------------------------------------------------------ *)
(* Parity: closure vs firmware                                         *)
(* ------------------------------------------------------------------ *)

let agree name (a : Flow.outcome) (b : Flow.outcome) =
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    (name ^ ": delivered") a.Flow.delivered b.Flow.delivered;
  Array.iteri
    (fun i (ca : Flow.counters) ->
      let cb = b.Flow.per_node.(i) in
      checki (Printf.sprintf "%s: node %d retransmits" name i) ca.Flow.retransmits
        cb.Flow.retransmits;
      checki (Printf.sprintf "%s: node %d acks_tx" name i) ca.Flow.acks_tx cb.Flow.acks_tx;
      checki (Printf.sprintf "%s: node %d acks_rx" name i) ca.Flow.acks_rx cb.Flow.acks_rx;
      checki
        (Printf.sprintf "%s: node %d rx_duplicates" name i)
        ca.Flow.rx_duplicates cb.Flow.rx_duplicates)
    a.Flow.per_node;
  checki (name ^ ": checksum") a.Flow.checksum b.Flow.checksum

let parity name cfg =
  let a = Flow.run Flow.Closure cfg and b = Flow.run Flow.Firmware cfg in
  agree name a b;
  b

let test_parity_clean () =
  ignore (parity "clean 2-node" Flow.default);
  ignore
    (parity "clean 5-node ring"
       { Flow.default with Flow.nodes = 5; messages = 3; body_bytes = 200 })

let test_parity_standard_nic () =
  (* on the standard interface the firmware runs host-interpreted; the
     protocol must not care where it executes *)
  ignore (parity "clean standard NIC" { Flow.default with Flow.nic = `Standard })

let test_delivery_complete_under_loss () =
  let cfg =
    {
      Flow.default with
      Flow.messages = 10;
      faults = Some { Faults.none with Faults.seed = 3; cell_loss = 5e-3 };
    }
  in
  let o = Flow.run Flow.Firmware cfg in
  checki "every message delivered exactly once" (2 * 10) (List.length o.Flow.delivered)

let test_parity_loss_corrupt_sweep () =
  List.iter
    (fun (seed, loss, corrupt) ->
      let cfg =
        {
          Flow.default with
          Flow.messages = 12;
          faults =
            Some { Faults.none with Faults.seed; cell_loss = loss; cell_corrupt = corrupt };
        }
      in
      ignore (parity (Printf.sprintf "loss=%g corrupt=%g seed=%d" loss corrupt seed) cfg))
    [ (1, 1e-2, 0.); (2, 0., 1e-2); (3, 5e-3, 5e-3); (9, 2e-2, 1e-3) ]

let test_parity_qcheck =
  QCheck.Test.make ~count:20 ~name:"parity under random seeded loss/corruption"
    QCheck.(triple (int_bound 10_000) (int_bound 15) (int_bound 15))
    (fun (seed, loss_m, corrupt_m) ->
      (* probabilities up to 1.5e-2 per cell: lossy enough to force
         retransmissions and duplicate acks, far from the retry budget *)
      let cfg =
        {
          Flow.default with
          Flow.messages = 6;
          faults =
            Some
              {
                Faults.none with
                Faults.seed;
                cell_loss = float_of_int loss_m *. 1e-3;
                cell_corrupt = float_of_int corrupt_m *. 1e-3;
              };
        }
      in
      let a = Flow.run Flow.Closure cfg and b = Flow.run Flow.Firmware cfg in
      a.Flow.checksum = b.Flow.checksum)

(* as many deliveries as messages, none of them twice *)
let check_exactly_once name (cfg : Flow.config) (o : Flow.outcome) =
  let n = cfg.Flow.nodes * cfg.Flow.messages in
  checki (name ^ ": every message delivered") n (List.length o.Flow.delivered);
  checki (name ^ ": no message delivered twice") n
    (List.length (List.sort_uniq compare o.Flow.delivered))

let test_parity_crash_restart () =
  (* crash one node mid-flow, with and without scrubbing its board. Sends
     ride a 40 us pacing grid so both implementations have the same frame
     in flight when the window opens, and the window edges sit mid-slot,
     hundreds of microseconds from the 1 ms retransmission grid. *)
  let row ?(messages = 6) ~scrub (name, victim, at_us, down_us) =
    let name = if scrub then "scrub " ^ name else name in
    let schedule =
      [
        { Faults.e_at = Time.us at_us; e_node = victim; e_fault = Faults.Crash { scrub } };
        { Faults.e_at = Time.us (at_us + down_us); e_node = victim; e_fault = Faults.Restart };
      ]
    in
    let cfg =
      {
        Flow.default with
        Flow.messages;
        pace = Some (Time.us 40);
        faults = Some { Faults.none with Faults.seed = 5; schedule };
      }
    in
    let o = parity name cfg in
    check_exactly_once name cfg o;
    (name, o)
  in
  List.iter
    (fun scrub ->
      (* a crashed receiver: its window state survives (after a scrub, the
         host's copy fills the fresh firmware segment), frames sent into
         the dead window are lost unjudged and a post-restart
         retransmission completes the flow *)
      List.iter
        (fun r ->
          let name, o = row ~scrub r in
          (* not vacuous: the dead window really cost a frame *)
          let retx = Array.fold_left (fun acc c -> acc + c.Flow.retransmits) 0 o.Flow.per_node in
          checki (name ^ ": exactly one frame died in the window") 1 retx)
        [
          (* node 1 receives node 0's flow over slots 0..200us; edges sit
             ~30us into a slot, past either implementation's ~15us round
             trip *)
          ("crash rx node1 @110us/80us down", 1, 110, 80);
          ("crash rx node1 @70us/60us down", 1, 70, 60);
          (* node 0 receives node 1's flow over slots 240..440us *)
          ("crash rx node0 @310us/80us down", 0, 310, 80);
        ];
      (* a crashed sender: the frames it posts while down, and the un-acked
         ones the crash caught, park and go out at the restart; both
         implementations number and keep them in the same sender table *)
      List.iter
        (fun r -> ignore (row ~scrub r))
        [
          ("crash tx node0 @100us/50us down", 0, 100, 50);
          ("crash tx node0 @100us/1500us down", 0, 100, 1500);
          ("crash tx node1 @330us/50us down", 1, 330, 50);
          ("crash tx node1 @330us/1500us down", 1, 330, 1500);
        ])
    [ false; true ];
  (* a scrubbed receiver whose window has moved past [window] frames: the
     fresh segment must start at the host's floor, or seq 9 lies beyond
     the firmware window on every retransmission *)
  List.iter
    (fun r -> ignore (row ~messages:12 ~scrub:true r))
    [
      ("crash rx node1 @110us/80us down, 12 msgs", 1, 110, 80);
      ("crash rx node1 @150us/30us down, 12 msgs", 1, 150, 30);
    ]

let test_retransmission_happens () =
  let cfg =
    {
      Flow.default with
      Flow.messages = 20;
      faults = Some { Faults.none with Faults.seed = 2; cell_loss = 3e-2 };
    }
  in
  let o = Flow.run Flow.Firmware cfg in
  let total = Array.fold_left (fun acc c -> acc + c.Flow.retransmits) 0 o.Flow.per_node in
  checkb "loss at 3e-2 forces firmware retransmissions" true (total > 0)

(* Pin the parity checksum of one canonical faulty run: a change here means
   the protocol's observable behaviour changed, which must be deliberate. *)
let test_pinned_checksum () =
  let cfg =
    {
      Flow.default with
      Flow.messages = 12;
      faults = Some { Faults.none with Faults.seed = 17; cell_loss = 8e-3; cell_corrupt = 2e-3 };
    }
  in
  let a = Flow.run Flow.Closure cfg and b = Flow.run Flow.Firmware cfg in
  checki "closure and firmware agree" a.Flow.checksum b.Flow.checksum;
  checki "pinned reliable-firmware parity checksum" 430942308 b.Flow.checksum

let () =
  Alcotest.run "reliable_ir"
    [
      ( "certs",
        [
          Alcotest.test_case "generated firmware certificates" `Quick test_firmware_certs;
          Alcotest.test_case "rx WCET independent of cluster size" `Quick
            test_rx_wcet_size_independent;
        ] );
      ( "parity",
        [
          Alcotest.test_case "clean fabric" `Quick test_parity_clean;
          Alcotest.test_case "standard NIC (host-interpreted)" `Quick
            test_parity_standard_nic;
          Alcotest.test_case "delivery complete under loss" `Quick
            test_delivery_complete_under_loss;
          Alcotest.test_case "loss/corruption sweep" `Quick test_parity_loss_corrupt_sweep;
          QCheck_alcotest.to_alcotest test_parity_qcheck;
          Alcotest.test_case "crash/restart schedules" `Quick test_parity_crash_restart;
          Alcotest.test_case "loss forces retransmission" `Quick test_retransmission_happens;
          Alcotest.test_case "pinned parity checksum" `Quick test_pinned_checksum;
        ] );
    ]
