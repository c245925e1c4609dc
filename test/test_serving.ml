(* Open-loop serving stack: arrival-process statistics under a fixed seed,
   histogram quantiles against a sorted-array oracle, scenario profile
   round-trips and rejection, and a deterministic 16-node serving smoke
   with its tail pinned. *)

module Time = Cni_engine.Time
module Nic = Cni_nic.Nic
module Arrival = Cni_experiments.Arrival
module Scenario = Cni_experiments.Scenario
module Kv_serve = Cni_apps.Kv_serve
module Hist = Cni_apps.Kv_serve.Hist

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                   *)
(* ------------------------------------------------------------------ *)

let gap_stats kind ~seed ~n =
  let g = Arrival.create ~seed kind in
  let xs = Array.init n (fun _ -> Time.to_us_float (Arrival.next_gap g)) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. float_of_int n
  in
  (mean, sqrt var /. mean)

let test_poisson_stats () =
  (* 50k req/s -> mean gap 20 us, exponential -> CV 1 *)
  let mean, cv = gap_stats (Arrival.Poisson { rate_per_s = 50_000. }) ~seed:11 ~n:20_000 in
  checkb "mean gap within 3% of 1/rate" true (Float.abs (mean -. 20.) < 0.6);
  checkb "coefficient of variation ~1" true (Float.abs (cv -. 1.) < 0.05)

let test_bursty_stats () =
  let kind =
    Arrival.Bursty
      { on_rate_per_s = 200_000.; off_rate_per_s = 0.; mean_on_us = 200.; mean_off_us = 600. }
  in
  (* long-run rate = 200k * 200/(200+600) = 50k -> mean gap 20 us *)
  check (Alcotest.float 1e-9) "weighted mean rate" 50_000. (Arrival.mean_rate_per_s kind);
  let mean, cv = gap_stats kind ~seed:11 ~n:20_000 in
  checkb "mean gap within 10% of 1/mean-rate" true (Float.abs (mean -. 20.) < 2.);
  checkb "over-dispersed (CV > 1.5)" true (cv > 1.5)

let test_arrival_determinism () =
  let kind = Arrival.Poisson { rate_per_s = 10_000. } in
  let a = Arrival.create ~seed:3 kind and b = Arrival.create ~seed:3 kind in
  for _ = 1 to 1000 do
    checki "same seed, same gap" (Time.to_ps (Arrival.next_gap a))
      (Time.to_ps (Arrival.next_gap b))
  done;
  let c = Arrival.create ~seed:4 kind in
  let diff = ref false in
  for _ = 1 to 32 do
    if Time.to_ps (Arrival.next_gap a) <> Time.to_ps (Arrival.next_gap c) then diff := true
  done;
  checkb "different seed diverges" true !diff

let test_arrival_parse_roundtrip () =
  let kinds =
    [
      Arrival.Poisson { rate_per_s = 12_345.678 };
      Arrival.Bursty
        { on_rate_per_s = 1e5; off_rate_per_s = 0.5; mean_on_us = 33.3; mean_off_us = 66.6 };
    ]
  in
  List.iter
    (fun k ->
      match Arrival.kind_of_string (Arrival.kind_to_string k) with
      | Ok k' -> checkb "round-trip exact" true (k = k')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    kinds;
  List.iter
    (fun s ->
      match Arrival.kind_of_string s with
      | Ok _ -> Alcotest.failf "accepted bad arrival %S" s
      | Error _ -> ())
    [ "poisson 0"; "poisson -3"; "poisson"; "bursty 1 2 3"; "uniform 5"; "" ]

let test_arrival_validate () =
  (match Arrival.validate_kind (Arrival.Poisson { rate_per_s = -1. }) with
  | Error [ _ ] -> ()
  | _ -> Alcotest.fail "negative rate accepted");
  match
    Arrival.validate_kind
      (Arrival.Bursty
         { on_rate_per_s = 0.; off_rate_per_s = -1.; mean_on_us = 0.; mean_off_us = 1. })
  with
  | Error errs -> checki "all three problems reported" 3 (List.length errs)
  | Ok () -> Alcotest.fail "invalid bursty accepted"

(* ------------------------------------------------------------------ *)
(* Histogram vs sorted-array oracle                                    *)
(* ------------------------------------------------------------------ *)

let oracle_quantile sorted q =
  let n = Array.length sorted in
  let rank = Stdlib.min n (Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n)))) in
  sorted.(rank - 1)

let test_hist_exact_small () =
  let h = Hist.create () in
  for v = 0 to 31 do
    Hist.observe h v
  done;
  checki "count" 32 (Hist.count h);
  checki "min" 0 (Hist.min_value h);
  checki "max" 31 (Hist.max_value h);
  checki "p50 exact below 32" 15 (Hist.quantile h 0.5);
  checki "p100 exact" 31 (Hist.quantile h 1.0)

let test_hist_oracle_qcheck () =
  let gen =
    QCheck.make
      ~print:QCheck.Print.(list int)
      QCheck.Gen.(list_size (int_range 1 400) (oneof [ int_bound 100; int_bound 1_000_000_000 ]))
  in
  let prop xs =
    let h = Hist.create () in
    List.iter (Hist.observe h) xs;
    let sorted = Array.of_list (List.sort compare xs) in
    List.for_all
      (fun q ->
        let est = float_of_int (Hist.quantile h q) in
        let exact = float_of_int (oracle_quantile sorted q) in
        (* the estimate is an upper bound within one sub-bucket width *)
        est >= exact && est <= (exact *. (1. +. Hist.max_relative_error)) +. 1.)
      [ 0.5; 0.9; 0.99; 0.999; 1.0 ]
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"hist quantile within bucket width of oracle" gen prop)

let test_hist_buckets () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 5; 5; 70; 100_000 ];
  let bs = Hist.buckets h in
  checki "three non-empty buckets" 3 (List.length bs);
  List.iter
    (fun (lo, hi, n) ->
      checkb "bounds ordered" true (lo <= hi);
      checkb "count positive" true (n > 0))
    bs;
  checki "total spread over buckets" 4 (List.fold_left (fun a (_, _, n) -> a + n) 0 bs)

(* ------------------------------------------------------------------ *)
(* Serving smoke                                                       *)
(* ------------------------------------------------------------------ *)

let serve_config ~rate =
  {
    Kv_serve.clients = 12;
    servers = 4;
    requests_per_client = 40;
    arrival =
      (fun client ->
        let g = Arrival.create ~seed:(100 + client) (Arrival.Poisson { rate_per_s = rate }) in
        fun () -> Arrival.next_gap g);
    value_bytes = 256;
    put_pct = 20;
    seed = 42;
    service_cycles = 400;
  }

let test_serving_smoke () =
  let r = Kv_serve.run ~nic_kind:(`Cni Nic.default_cni_options) (serve_config ~rate:20_000.) in
  checki "every request issued" 480 r.Kv_serve.requests;
  checki "every response collected" 480 r.Kv_serve.responses;
  checki "gets + puts = responses" 480 (r.Kv_serve.gets + r.Kv_serve.puts);
  checkb "some puts in the mix" true (r.Kv_serve.puts > 0);
  checkb "tail ordering holds" true
    (r.Kv_serve.p50_us <= r.Kv_serve.p99_us
    && r.Kv_serve.p99_us <= r.Kv_serve.p999_us
    && r.Kv_serve.p999_us <= r.Kv_serve.max_us);
  (* the simulator is deterministic, so the tail is pinned exactly: any
     drift here is a real behaviour change somewhere in the stack *)
  checki "p99 pinned (ns)" 34_815 (Hist.quantile r.Kv_serve.hist 0.99);
  Printf.printf "serving smoke p50=%.3f p99=%.3f p999=%.3f max=%.3f elapsed=%.1f\n%!"
    r.Kv_serve.p50_us r.Kv_serve.p99_us r.Kv_serve.p999_us r.Kv_serve.max_us
    r.Kv_serve.elapsed_us

(* ------------------------------------------------------------------ *)
(* Scenario profiles                                                   *)
(* ------------------------------------------------------------------ *)

(* every fault directive, as a profile writes it after its fault-seed line *)
let fault_lines =
  "loss 1e-4\ncorrupt 0.33333333333333331\ndrop 0.001\ndown 2 10 30\ncrash 1 100 scrub\n\
   restart 1 300\ncrash 3 250\n"

let test_profile_roundtrip () =
  let all_faults =
    match Scenario.of_string ("name all-faults\nfault-seed 9\n" ^ fault_lines) with
    | Ok p -> p
    | Error e -> Alcotest.failf "all-faults profile rejected: %s" e
  in
  (match Cni_atm.Faults.config_of_string ("seed 9\n" ^ fault_lines) with
  | Ok f ->
      checkb "profile fault lines parse as a fault schedule does" true
        (all_faults.Scenario.faults = f)
  | Error e -> Alcotest.failf "fault lines rejected: %s" e);
  List.iter
    (fun p ->
      match Scenario.of_string (Scenario.to_string p) with
      | Ok p' ->
          checkb (Printf.sprintf "round-trip exact for %s" p.Scenario.name) true (p = p')
      | Error e -> Alcotest.failf "%s failed to re-parse: %s" p.Scenario.name e)
    (all_faults :: Scenario.builtins)

let test_builtins_valid () =
  List.iter
    (fun p ->
      (match Scenario.validate p with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "builtin %s invalid: %s" p.Scenario.name (String.concat "; " es));
      List.iter
        (fun (label, verdict) ->
          match verdict with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "builtin %s fails preflight %s: %s" p.Scenario.name label e)
        (Scenario.preflight p))
    Scenario.builtins

let test_profile_rejections () =
  let reject what p expected =
    match Scenario.validate p with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error es ->
        checkb
          (Printf.sprintf "%s names the problem (%s)" what (String.concat "; " es))
          true
          (List.exists (fun e -> contains e expected) es)
  in
  let d = Scenario.default in
  reject "empty name" d "name";
  reject "zero clients" { d with Scenario.name = "x"; clients = 0 } "clients";
  reject "put-pct 200" { d with Scenario.name = "x"; put_pct = 200 } "put-pct";
  reject "crash without restart"
    {
      d with
      Scenario.name = "x";
      faults =
        {
          Cni_atm.Faults.none with
          Cni_atm.Faults.schedule =
            [
              {
                Cni_atm.Faults.e_at = Time.us 100;
                e_node = 1;
                e_fault = Cni_atm.Faults.Crash { scrub = false };
              };
            ];
        };
    }
    "matching restart";
  (* a profile with several problems reports them all *)
  match Scenario.validate { d with Scenario.name = "BAD!"; clients = 0; put_pct = -4 } with
  | Ok () -> Alcotest.fail "multi-problem profile accepted"
  | Error es -> checkb "all three problems reported" true (List.length es >= 3)

(* validate and preflight share one check list: every check the preflight
   fails, bar service capacity (a load warning, not an inconsistency), is
   also a validate error *)
let test_preflight_matches_validate () =
  let d = { Scenario.default with Scenario.name = "x" } in
  let crash =
    {
      Cni_atm.Faults.e_at = Time.us 100;
      e_node = 1;
      e_fault = Cni_atm.Faults.Crash { scrub = false };
    }
  in
  let broken =
    [
      { d with Scenario.name = ""; clients = 0; rx_batch = 0 };
      { d with Scenario.arrival = Arrival.Poisson { rate_per_s = -1. } };
      { d with Scenario.topology = Cni_atm.Topology.Torus { dims = Some (2, 2, 2) } };
      { d with Scenario.faults = { Cni_atm.Faults.none with Cni_atm.Faults.cell_loss = 2. } };
      { d with Scenario.faults = { Cni_atm.Faults.none with Cni_atm.Faults.schedule = [ crash ] } };
    ]
  in
  List.iter
    (fun p ->
      let failing =
        List.filter_map
          (fun (label, verdict) ->
            match verdict with
            | Error msg when label <> "service capacity" -> Some (label, msg)
            | Ok _ | Error _ -> None)
          (Scenario.preflight p)
      in
      if List.memq p broken then
        checkb (Printf.sprintf "%S fails a check" p.Scenario.name) true (failing <> []);
      let errs = match Scenario.validate p with Ok () -> [] | Error es -> es in
      List.iter
        (fun (label, msg) ->
          checkb
            (Printf.sprintf "%s: %s has a validate error" label msg)
            true
            (List.exists (fun e -> contains msg e) errs))
        failing)
    (Scenario.builtins @ broken)

let test_profile_parse_errors () =
  let parse_err s = match Scenario.of_string s with Ok _ -> None | Error e -> Some e in
  (match parse_err "name x\nclients twelve\n" with
  | Some e -> checkb "line number reported" true (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | None -> Alcotest.fail "bad integer accepted");
  (match parse_err "name x\nflux 3\n" with
  | Some e -> checkb "unknown key rejected with line" true (String.sub e 0 6 = "line 2")
  | None -> Alcotest.fail "unknown key accepted");
  List.iter
    (fun line ->
      match parse_err ("name x\nservers 2\n" ^ line ^ "\n") with
      | Some e ->
          checkb (Printf.sprintf "%S rejected with line" line) true (String.sub e 0 6 = "line 3")
      | None -> Alcotest.failf "%S accepted" line)
    [ "down 1 10"; "crash 1"; "crash 1 10 wipe"; "restart 1 10 20" ];
  (match parse_err "clients 4\n" with
  | Some _ -> ()
  | None -> Alcotest.fail "nameless profile accepted");
  (* comments and blank lines are fine; unknown fields inside them are not parsed *)
  match Scenario.of_string "# a comment\n\nname ok # trailing comment\nservers 2\n" with
  | Ok p ->
      checks "name parsed" "ok" p.Scenario.name;
      checki "servers parsed" 2 p.Scenario.servers
  | Error e -> Alcotest.failf "comment handling broke: %s" e

let small_profile =
  {
    Scenario.default with
    Scenario.name = "pin-16";
    summary = "deterministic 16-node smoke for the pinned tail";
  }

let test_scenario_deterministic () =
  let a = Scenario.run small_profile and b = Scenario.run small_profile in
  check (Alcotest.float 0.) "p50 identical" a.Kv_serve.p50_us b.Kv_serve.p50_us;
  check (Alcotest.float 0.) "p99 identical" a.Kv_serve.p99_us b.Kv_serve.p99_us;
  check (Alcotest.float 0.) "p999 identical" a.Kv_serve.p999_us b.Kv_serve.p999_us;
  check (Alcotest.float 0.) "elapsed identical" a.Kv_serve.elapsed_us b.Kv_serve.elapsed_us;
  checki "interrupts identical" a.Kv_serve.host_interrupts b.Kv_serve.host_interrupts

(* at seed 3 a frame is posted into the crashed node's dead window: it must
   wait for the restart with the un-acked frames, or a client is stranded
   and the run deadlocks *)
let test_faulty_torus_answers_every_request () =
  let p = Option.get (Scenario.find "burst-faulty-torus") in
  let p =
    { p with Scenario.seed = 3; faults = { p.Scenario.faults with Cni_atm.Faults.seed = 3 } }
  in
  let r = Scenario.run p in
  checki "every request issued" 480 r.Kv_serve.requests;
  checki "every request answered" 480 r.Kv_serve.responses

let test_rx_policies_distinguished () =
  (* the acceptance bar: at high offered load the tail must tell the
     receive policies apart *)
  let poll = Scenario.run (Option.get (Scenario.find "hot-poll-16")) in
  let intr = Scenario.run (Option.get (Scenario.find "hot-interrupt-16")) in
  checki "poll run drained" poll.Kv_serve.requests poll.Kv_serve.responses;
  checki "interrupt run drained" intr.Kv_serve.requests intr.Kv_serve.responses;
  checkb "p99 tails differ between rx policies" true
    (Float.abs (poll.Kv_serve.p99_us -. intr.Kv_serve.p99_us) > 0.001);
  Printf.printf "hot-poll p99=%.3f hot-interrupt p99=%.3f\n%!" poll.Kv_serve.p99_us
    intr.Kv_serve.p99_us

let () =
  Alcotest.run "serving"
    [
      ( "arrival",
        [
          Alcotest.test_case "poisson stats" `Quick test_poisson_stats;
          Alcotest.test_case "bursty stats" `Quick test_bursty_stats;
          Alcotest.test_case "determinism" `Quick test_arrival_determinism;
          Alcotest.test_case "parse round-trip" `Quick test_arrival_parse_roundtrip;
          Alcotest.test_case "validate" `Quick test_arrival_validate;
        ] );
      ( "hist",
        [
          Alcotest.test_case "exact small values" `Quick test_hist_exact_small;
          Alcotest.test_case "oracle qcheck" `Quick test_hist_oracle_qcheck;
          Alcotest.test_case "buckets" `Quick test_hist_buckets;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "builtin round-trip" `Quick test_profile_roundtrip;
          Alcotest.test_case "builtins validate + preflight" `Quick test_builtins_valid;
          Alcotest.test_case "rejections" `Quick test_profile_rejections;
          Alcotest.test_case "preflight failures are validate errors" `Quick
            test_preflight_matches_validate;
          Alcotest.test_case "parse errors" `Quick test_profile_parse_errors;
        ] );
      ( "serving",
        [
          Alcotest.test_case "16-node smoke" `Quick test_serving_smoke;
          Alcotest.test_case "deterministic scenario run" `Quick test_scenario_deterministic;
          Alcotest.test_case "rx policies distinguished" `Quick test_rx_policies_distinguished;
          Alcotest.test_case "faulty torus answers every request" `Quick
            test_faulty_torus_answers_every_request;
        ] );
    ]
