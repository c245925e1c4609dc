(* Fault injection + reliable delivery: the cluster must survive a lossy
   fabric. Covers the deterministic fault model, the NIC receive window,
   recovery through retransmission (cell loss, corruption, link-down
   windows), structured failure when the retry budget runs out, and the
   zero-fault fast path staying cost-free. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Faults = Cni_atm.Faults
module Reliable = Cni_nic.Reliable
module Nic = Cni_nic.Nic
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Runner = Cni_experiments.Runner

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let cni = `Cni Cni_nic.Nic.default_cni_options

(* ------------------------------------------------------------------ *)
(* Fault model                                                         *)
(* ------------------------------------------------------------------ *)

let test_judge_deterministic () =
  let cfg =
    { Faults.none with Faults.cell_loss = 0.05; cell_corrupt = 0.03; frame_drop = 0.02 }
  in
  let stream cfg =
    let f = Faults.create cfg in
    List.init 500 (fun i -> Faults.judge f ~cells:(1 + (i mod 7)))
  in
  checkb "same config, same verdict stream" true (stream cfg = stream cfg);
  checkb "a different seed draws a different stream" true
    (stream cfg <> stream { cfg with Faults.seed = 7 });
  checkb "faults actually fire at these rates" true
    (List.exists (fun v -> v <> Faults.Pass) (stream cfg))

let test_judge_none_always_passes () =
  let f = Faults.create Faults.none in
  for cells = 1 to 50 do
    checkb "clean model passes everything" true (Faults.judge f ~cells = Faults.Pass)
  done

let test_config_validation () =
  (try
     ignore (Faults.create { Faults.none with Faults.cell_loss = 1.5 });
     Alcotest.fail "probability > 1 accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Faults.create
         {
           Faults.none with
           Faults.link_down = [ { Faults.w_node = 0; w_from = Time.us 5; w_upto = Time.us 5 } ];
         });
    Alcotest.fail "empty window accepted"
  with Invalid_argument _ -> ()

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let test_schedule_text_roundtrip () =
  let cfg =
    {
      Faults.seed = 9;
      cell_loss = 1e-4;
      cell_corrupt = 0.;
      frame_drop = 0.;
      link_down = [ { Faults.w_node = 2; w_from = Time.us 10; w_upto = Time.us 30 } ];
      schedule =
        [
          { Faults.e_at = Time.us 100; e_node = 1; e_fault = Faults.Crash { scrub = true } };
          { Faults.e_at = Time.us 300; e_node = 1; e_fault = Faults.Restart };
          { Faults.e_at = Time.us 250; e_node = 3; e_fault = Faults.Crash { scrub = false } };
        ];
    }
  in
  (* 1/3 is where a short float format would truncate the probability *)
  List.iter
    (fun cfg ->
      match Faults.config_of_string (Faults.config_to_string cfg) with
      | Ok cfg' -> checkb "text round-trip preserves the config" true (cfg = cfg')
      | Error e -> Alcotest.fail e)
    [ cfg; { cfg with Faults.cell_corrupt = 1. /. 3.; frame_drop = 0.1 } ];
  match Faults.config_of_string (Faults.config_to_string Faults.none) with
  | Ok cfg' -> checkb "none renders to nothing and parses back" true (Faults.is_none cfg')
  | Error e -> Alcotest.fail e

let test_schedule_parse_errors () =
  (match Faults.config_of_string "seed 7\nfrobnicate 3" with
  | Error e -> checkb "unknown directive names its line" true (contains e "line 2")
  | Ok _ -> Alcotest.fail "unknown directive accepted");
  (match Faults.config_of_string "crash 1 soon" with
  | Error e -> checkb "bad number reported" true (contains e "soon")
  | Ok _ -> Alcotest.fail "non-numeric time accepted");
  match Faults.config_of_string "# comment only\n\ncrash 2 100 scrub\nrestart 2 300" with
  | Ok cfg -> checki "comments and blanks skipped" 2 (List.length cfg.Faults.schedule)
  | Error e -> Alcotest.fail e

let test_reversed_window_rejected () =
  let w = { Faults.w_node = 1; w_from = Time.us 20; w_upto = Time.us 10 } in
  (try
     ignore (Faults.create { Faults.none with Faults.link_down = [ w ] });
     Alcotest.fail "reversed window accepted"
   with Invalid_argument _ -> ());
  match Faults.validate ~nodes:2 { Faults.none with Faults.link_down = [ w ] } with
  | Ok () -> Alcotest.fail "validate passed a reversed window"
  | Error es -> checkb "validate names the reversal" true
      (List.exists (fun e -> contains e "reversed") es)

let test_overlapping_windows_merge () =
  let w node a b = { Faults.w_node = node; w_from = Time.us a; w_upto = Time.us b } in
  checkb "overlapping and adjacent same-node windows merge" true
    (Faults.normalize_windows [ w 1 15 30; w 1 10 20; w 1 30 35; w 2 12 18 ]
    = [ w 1 10 35; w 2 12 18 ]);
  checkb "disjoint windows untouched" true
    (Faults.normalize_windows [ w 1 10 20; w 1 25 30 ] = [ w 1 10 20; w 1 25 30 ])

let test_validate_collects_errors () =
  let cfg =
    {
      Faults.none with
      Faults.cell_loss = 2.0;
      link_down = [ { Faults.w_node = 9; w_from = Time.us 1; w_upto = Time.us 2 } ];
      schedule =
        [
          { Faults.e_at = Time.us 10; e_node = 1; e_fault = Faults.Crash { scrub = false } };
          { Faults.e_at = Time.us 20; e_node = 1; e_fault = Faults.Crash { scrub = false } };
          { Faults.e_at = Time.us 30; e_node = 2; e_fault = Faults.Restart };
        ];
    }
  in
  match Faults.validate ~nodes:4 cfg with
  | Ok () -> Alcotest.fail "inconsistent config validated"
  | Error es ->
      checki "every problem reported, not just the first" 4 (List.length es);
      checkb "double crash caught" true
        (List.exists (fun e -> contains e "already crashed") es);
      checkb "orphan restart caught" true
        (List.exists (fun e -> contains e "without a prior crash") es)

let test_link_down_window () =
  let f =
    Faults.create
      {
        Faults.none with
        Faults.link_down = [ { Faults.w_node = 1; w_from = Time.us 10; w_upto = Time.us 20 } ];
      }
  in
  checkb "before the window" false (Faults.link_down f ~node:1 ~now:(Time.us 9));
  checkb "inside the window" true (Faults.link_down f ~node:1 ~now:(Time.us 10));
  checkb "end is exclusive" false (Faults.link_down f ~node:1 ~now:(Time.us 20));
  checkb "other nodes unaffected" false (Faults.link_down f ~node:0 ~now:(Time.us 15))

(* ------------------------------------------------------------------ *)
(* Receive window                                                      *)
(* ------------------------------------------------------------------ *)

let test_window_dedup () =
  let w = Reliable.Window.create () in
  checkb "1 fresh" true (Reliable.Window.observe w 1 = `Fresh);
  checkb "1 again is a duplicate" true (Reliable.Window.observe w 1 = `Duplicate);
  checkb "3 out of order is fresh" true (Reliable.Window.observe w 3 = `Fresh);
  checki "floor waits for 2" 1 (Reliable.Window.floor w);
  checkb "2 fresh" true (Reliable.Window.observe w 2 = `Fresh);
  checki "floor advanced over the contiguous prefix" 3 (Reliable.Window.floor w);
  checkb "2 now below the floor" true (Reliable.Window.observe w 2 = `Duplicate);
  checkb "3 remembered as seen" true (Reliable.Window.observe w 3 = `Duplicate)

(* The window against a set of every sequence number seen: a number is
   fresh exactly when the set lacks it, and the floor is the longest run
   1..n inside the set. The stream mixes the next number in order, repeats,
   numbers below the floor and numbers ahead of it. *)
type window_op = Next | Repeat of int | Old of int | Ahead of int

let window_matches_a_seen_set =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (frequency
           [
             (6, return Next);
             (2, map (fun i -> Repeat i) nat);
             (1, map (fun i -> Old i) nat);
             (2, map (fun k -> Ahead k) (int_range 1 5));
           ]))
  in
  let print ops =
    String.concat " "
      (List.map
         (function
           | Next -> "next" | Repeat i -> Printf.sprintf "repeat%d" i
           | Old i -> Printf.sprintf "old%d" i | Ahead k -> Printf.sprintf "ahead%d" k)
         ops)
  in
  QCheck.Test.make ~name:"window agrees with a set of seen numbers" ~count:500
    (QCheck.make ~print gen) (fun ops ->
      let module S = Set.Make (Int) in
      let w = Reliable.Window.create () in
      let seen = ref S.empty in
      let rec floor n = if S.mem (n + 1) !seen then floor (n + 1) else n in
      List.for_all
        (fun op ->
          let f = floor 0 in
          let seq =
            match op with
            | Next -> f + 1
            | Repeat i when not (S.is_empty !seen) ->
                List.nth (S.elements !seen) (i mod S.cardinal !seen)
            | Repeat _ -> 1
            | Old i -> if f = 0 then 1 else 1 + (i mod f)
            | Ahead k -> f + 1 + k
          in
          let expect = if S.mem seq !seen then `Duplicate else `Fresh in
          seen := S.add seq !seen;
          Reliable.Window.observe w seq = expect && Reliable.Window.floor w = floor 0)
        ops)

(* ------------------------------------------------------------------ *)
(* Sender table                                                        *)
(* ------------------------------------------------------------------ *)

(* The sender table on a bare engine: no cluster, a recorded transmit path
   and a destination whose liveness the test switches. Each transmission is
   logged as (dst, seq, the aux field of the header that went out). *)
let sender_table ~peer_down =
  let eng = Engine.create () in
  let sent = ref [] and resent = ref [] in
  let record log (e : unit Reliable.Sender.frame) =
    let aux = (Cni_nic.Wire.decode e.Reliable.Sender.header).Cni_nic.Wire.aux in
    log := (e.Reliable.Sender.dst, e.Reliable.Sender.seq, aux) :: !log
  in
  let cfg =
    { Reliable.timeout = Time.us 10; backoff = 2; max_tries = 3; max_rto = Time.us 15 }
  in
  let s =
    Reliable.Sender.create cfg eng ~node:0 ~counter:Cni_engine.Stats.Counter.create
      ~peer_down:(fun _ -> !peer_down) ~transmit:(record sent) ~retransmit:(record resent)
  in
  (eng, s, sent, resent)

let data_header =
  Cni_nic.Wire.encode
    { Cni_nic.Wire.kind = 1; cacheable = false; has_data = false; src = 0; channel = 3;
      obj = 0; aux = 0 }

let test_sender_table () =
  let triples = Alcotest.(list (triple int int int)) in
  let eng, s, sent, resent = sender_table ~peer_down:(ref false) in
  let post dst = Reliable.Sender.post s ~dst ~header:data_header () in
  post 1;
  check triples "a live board sends at once" [ (1, 1, 1) ] !sent;
  (* the board crashes: the un-acked frame parks, and so does every frame
     posted while it is down *)
  Reliable.Sender.park s;
  post 2;
  post 1;
  checki "posts while down send nothing" 1 (List.length !sent);
  checki "parked frames stay unacked" 3 (Reliable.Sender.unacked s);
  sent := [];
  Reliable.Sender.resume s;
  check triples "restart re-sends in post order, each with its original sequence number"
    [ (1, 1, 1); (2, 1, 1); (1, 2, 2) ]
    (List.rev !sent);
  checkb "the re-sent frame is pending under (dst, seq)" true
    (Reliable.Sender.find s ~dst:1 ~seq:2 <> None);
  (* an ack settles its frame: it leaves the table and never retransmits *)
  checkb "ack settles" true (Reliable.Sender.settle s ~dst:2 ~seq:1 <> None);
  checkb "second ack finds nothing" true (Reliable.Sender.settle s ~dst:2 ~seq:1 = None);
  checki "two frames left" 2 (Reliable.Sender.unacked s);
  (match Engine.run eng with
  | () -> Alcotest.fail "expected the retry budget to run out"
  | exception Engine.Fiber_failure (_, Reliable.Delivery_failed f) ->
      checki "failure names the destination" 1 f.Reliable.dst;
      checki "budget was fully spent" 3 f.Reliable.tries);
  checkb "the settled frame never retransmitted" false
    (List.exists (fun (dst, _, _) -> dst = 2) !resent);
  (* the same exhaustion against a crashed destination is a diagnosis *)
  let eng, s, _, _ = sender_table ~peer_down:(ref true) in
  Reliable.Sender.post s ~dst:1 ~header:data_header ();
  match Engine.run eng with
  | () -> Alcotest.fail "expected Peer_dead"
  | exception Engine.Fiber_failure (_, Reliable.Peer_dead f) ->
      checki "peer-dead names the destination" 1 f.Reliable.dst

(* A frame whose first transmission is still in flight when its board
   crashes: the copy sent before the crash and the re-send after the
   restart carry the same sequence number, so the receiver's window takes
   whichever lands first and calls the other a duplicate, and the ack of
   either settles the frame. *)
let test_pre_crash_copy () =
  let verdict =
    Alcotest.testable
      (fun ppf v ->
        Format.pp_print_string ppf
          (match v with
          | `Unsequenced -> "unsequenced"
          | `Fresh -> "fresh"
          | `Duplicate -> "duplicate"))
      ( = )
  in
  let eng, s, sent, resent = sender_table ~peer_down:(ref false) in
  Reliable.Sender.post s ~dst:1 ~header:data_header ();
  let before = List.hd !sent in
  Reliable.Sender.park s;
  Reliable.Sender.resume s;
  let after = List.hd !sent in
  check Alcotest.(triple int int int) "the re-send is the same frame" before after;
  let judge rx (_, _, aux) = Reliable.Receiver.judge rx ~src:0 ~aux in
  let rx = Reliable.Receiver.create () in
  check verdict "the pre-crash copy, arriving after the restart" `Fresh (judge rx before);
  check verdict "the re-send behind it" `Duplicate (judge rx after);
  check verdict "the pre-crash copy again" `Duplicate (judge rx before);
  let rx = Reliable.Receiver.create () in
  check verdict "the re-send, arriving first" `Fresh (judge rx after);
  check verdict "the pre-crash copy behind it" `Duplicate (judge rx before);
  (* the receiver acks each copy with the sequence number it carries *)
  let _, _, seq = before in
  checkb "the ack settles the re-sent frame" true (Reliable.Sender.settle s ~dst:1 ~seq <> None);
  checki "nothing left unacked" 0 (Reliable.Sender.unacked s);
  Engine.run eng;
  checki "its timer finds nothing to retransmit" 0 (List.length !resent)

(* ------------------------------------------------------------------ *)
(* End-to-end recovery                                                 *)
(* ------------------------------------------------------------------ *)

let run_jacobi ?faults ?reliability ~kind () =
  let r = Runner.run ?faults ?reliability ~kind ~procs:4 (Runner.jacobi ~n:96 ~iterations:6) in
  (r, r.Runner.checksum)

let clean_checksum = lazy (snd (run_jacobi ~kind:(Runner.cni ()) ()))

let test_survives_cell_loss () =
  List.iter
    (fun kind ->
      let faults = { Faults.none with Faults.cell_loss = 2e-3 } in
      let r, cs = run_jacobi ~faults ~kind () in
      check (Alcotest.float 0.0) "numerics unchanged under loss" (Lazy.force clean_checksum) cs;
      checkb "frames were lost" true (r.Runner.fault_drops > 0);
      checkb "lost frames were retransmitted" true (r.Runner.retransmits > 0))
    [ Runner.cni (); Runner.standard ]

let test_survives_corruption () =
  let faults = { Faults.none with Faults.cell_corrupt = 2e-3 } in
  let r, cs = run_jacobi ~faults ~kind:(Runner.cni ()) () in
  check (Alcotest.float 0.0) "numerics unchanged under corruption"
    (Lazy.force clean_checksum) cs;
  checkb "CRC-failed frames were retransmitted" true (r.Runner.retransmits > 0)

let test_faulty_runs_deterministic () =
  let faults = { Faults.none with Faults.cell_loss = 1e-3; Faults.cell_corrupt = 1e-3 } in
  let a, _ = run_jacobi ~faults ~kind:(Runner.cni ()) () in
  let b, _ = run_jacobi ~faults ~kind:(Runner.cni ()) () in
  checki "bit-identical simulated time" (Time.to_ps a.Runner.elapsed)
    (Time.to_ps b.Runner.elapsed);
  checki "identical retransmission count" a.Runner.retransmits b.Runner.retransmits

let test_loss_costs_time () =
  let lossy = { Faults.none with Faults.cell_loss = 5e-3 } in
  (* baseline with the same reliability protocol, only the fabric differs *)
  let clean, _ =
    run_jacobi ~reliability:Reliable.default ~kind:(Runner.cni ()) ()
  and faulty, _ = run_jacobi ~faults:lossy ~kind:(Runner.cni ()) () in
  checkb "retransmission delay shows up in elapsed time" true
    (Time.to_ps faulty.Runner.elapsed > Time.to_ps clean.Runner.elapsed)

let test_zero_fault_path_costs_nothing () =
  let r, _ = run_jacobi ~kind:(Runner.cni ()) () in
  checki "no retransmissions without reliability" 0 r.Runner.retransmits;
  checki "no fault drops without faults" 0 r.Runner.fault_drops;
  (* reliability is off entirely: the NIC holds no protocol state *)
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~nic_kind:cni ~nodes:2 () in
  checkb "rel_stats absent on a clean cluster" true
    (Nic.rel_stats (Node.nic (Cluster.node cluster 0)) = None)

let test_link_down_recovery () =
  (* node 1's link dies for the first 5 ms; exponential backoff must carry
     the retransmissions past the outage *)
  let faults =
    {
      Faults.none with
      Faults.link_down = [ { Faults.w_node = 1; w_from = Time.zero; w_upto = Time.us 5_000 } ];
    }
  in
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  let got = ref (-1) in
  Cluster.run_app cluster (fun node ->
      let ep = eps.(Node.id node) in
      if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:1 99
      else got := (Mp.recv ep ~tag:1 ()).Mp.value);
  checki "message arrived after the outage" 99 !got;
  checkb "delivery needed retransmissions" true (Cluster.retransmits cluster > 0)

(* A retransmit timer armed before a crash never fires after the restart.
   Node 1 is down from 1 to 3000 us, so the frame node 0 posts at t = 0
   needs two retransmissions. When node 0 itself crashes from 50 to 300 us,
   the restart re-sends the frame and arms a fresh timer; the pre-crash
   timer, still queued, must not start a second retransmission chain that
   spends the same retry budget. *)
let test_timer_dies_with_its_crash () =
  let down ~node ~from_us ~upto_us =
    [
      { Faults.e_at = Time.us from_us; e_node = node; e_fault = Faults.Crash { scrub = false } };
      { Faults.e_at = Time.us upto_us; e_node = node; e_fault = Faults.Restart };
    ]
  in
  let receiver_down = down ~node:1 ~from_us:1 ~upto_us:3_000 in
  List.iter
    (fun (label, schedule) ->
      let faults = { Faults.none with Faults.schedule } in
      let cluster : int Mp.envelope Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:2 () in
      let eps = Mp.install cluster in
      let got = ref [] in
      Cluster.run_app cluster (fun node ->
          let ep = eps.(Node.id node) in
          if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:1 99
          else got := (Mp.recv ep ~tag:1 ()).Mp.value :: !got);
      check Alcotest.(list int) (label ^ ": delivered exactly once") [ 99 ] !got;
      checki (label ^ ": retransmissions") 2 (Cluster.retransmits cluster))
    [
      ("receiver down", receiver_down);
      ("sender crashed meanwhile", receiver_down @ down ~node:0 ~from_us:50 ~upto_us:300);
    ]

(* An acked frame is garbage once its ack lands: its retransmit timer,
   still queued for the rest of the 1 ms RTO, names the frame rather than
   holding it, so neither the frame nor its payload survives a major
   collection. *)
let test_acked_frame_not_pinned_by_its_timer () =
  let cluster : Bytes.t Cluster.t =
    Cluster.create ~reliability:Reliable.default ~nic_kind:cni ~nodes:2 ()
  in
  let eng = Cluster.engine cluster in
  let nic0 = Node.nic (Cluster.node cluster 0) in
  let delivered = ref 0 in
  ignore
    (Nic.install_handler
       (Node.nic (Cluster.node cluster 1))
       ~pattern:(Cni_nic.Wire.pattern_channel ~channel:3) ~code_bytes:64
       (fun _ _ -> incr delivered));
  let payload = Weak.create 1 in
  let post () =
    let body = Bytes.make 256 'x' in
    Weak.set payload 0 (Some body);
    Engine.spawn eng (fun () ->
        Nic.send nic0 ~dst:1 ~header:data_header ~body_bytes:256 ~data:Nic.No_data ~payload:body)
  in
  post ();
  Engine.run_until eng (Time.us 500);
  checki "delivered" 1 !delivered;
  checki "acked" 0 (Nic.rel_pending_count nic0);
  checkb "its retransmit timer is still queued" true (Engine.pending eng > 0);
  Gc.full_major ();
  checkb "the acked frame's payload was collected" true (Weak.get payload 0 = None);
  Engine.run eng;
  checki "the timer found nothing to resend" 0 (Cluster.retransmits cluster)

let test_permanent_outage_fails_structurally () =
  (* a link that never comes back: the sender must surface Delivery_failed
     once its retry budget is exhausted, not hang the simulation *)
  let faults =
    {
      Faults.none with
      Faults.link_down =
        [ { Faults.w_node = 1; w_from = Time.zero; w_upto = Time.us 600_000_000 } ];
    }
  in
  let cluster : int Mp.envelope Cluster.t = Cluster.create ~faults ~nic_kind:cni ~nodes:2 () in
  let eps = Mp.install cluster in
  match
    Cluster.run_app cluster (fun node ->
        let ep = eps.(Node.id node) in
        if Mp.rank ep = 0 then Mp.send ep ~dst:1 ~tag:1 1
        else ignore (Mp.recv ep ~tag:1 ()))
  with
  | () -> Alcotest.fail "expected Delivery_failed"
  | exception Engine.Fiber_failure (_, Reliable.Delivery_failed f) ->
      checki "failure names the sending node" 0 f.Reliable.node;
      checki "failure names the destination" 1 f.Reliable.dst;
      checki "budget was fully spent" Reliable.default.Reliable.max_tries f.Reliable.tries

let () =
  Alcotest.run "faults"
    [
      ( "model",
        [
          Alcotest.test_case "judge deterministic" `Quick test_judge_deterministic;
          Alcotest.test_case "none passes everything" `Quick test_judge_none_always_passes;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "link-down windows" `Quick test_link_down_window;
          Alcotest.test_case "schedule text round-trip" `Quick test_schedule_text_roundtrip;
          Alcotest.test_case "schedule parse errors" `Quick test_schedule_parse_errors;
          Alcotest.test_case "reversed window rejected" `Quick test_reversed_window_rejected;
          Alcotest.test_case "overlapping windows merge" `Quick test_overlapping_windows_merge;
          Alcotest.test_case "validate collects errors" `Quick test_validate_collects_errors;
        ] );
      ( "window",
        [
          Alcotest.test_case "duplicate suppression" `Quick test_window_dedup;
          QCheck_alcotest.to_alcotest window_matches_a_seen_set;
        ] );
      ( "sender",
        [
          Alcotest.test_case "park, resume, settle, budget" `Quick test_sender_table;
          Alcotest.test_case "a pre-crash copy is one frame with its re-send" `Quick
            test_pre_crash_copy;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "survives cell loss (both NICs)" `Quick test_survives_cell_loss;
          Alcotest.test_case "survives corruption" `Quick test_survives_corruption;
          Alcotest.test_case "faulty runs deterministic" `Quick test_faulty_runs_deterministic;
          Alcotest.test_case "loss costs time" `Quick test_loss_costs_time;
          Alcotest.test_case "zero-fault path costs nothing" `Quick
            test_zero_fault_path_costs_nothing;
          Alcotest.test_case "link-down recovery" `Quick test_link_down_recovery;
          Alcotest.test_case "a timer armed before a crash stays dead" `Quick
            test_timer_dies_with_its_crash;
          Alcotest.test_case "permanent outage fails structurally" `Quick
            test_permanent_outage_fails_structurally;
          Alcotest.test_case "an acked frame is not pinned by its timer" `Quick
            test_acked_frame_not_pinned_by_its_timer;
        ] );
    ]
