(* perfbench: the repository benchmark. README.md explains the workloads,
   every metric and the checks.

   One process runs one workload, single-threaded, through the simulator's
   public entry points. It builds the inputs from --seed, times the set-up
   calls several times, repeats the run phase for --seconds of host time,
   checks every output, and prints one JSON result line last on stdout: the
   end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
   It also writes an artifact with every run, check, kernel estimate and
   its own spans to .bench_out/. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Trace = Cni_engine.Trace
module Params = Cni_machine.Params
module Wire = Cni_nic.Wire
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Mp = Cni_mp.Mp
module Space = Cni_dsm.Space
module Lrc = Cni_dsm.Lrc
module Protocol = Cni_dsm.Protocol
module Cholesky = Cni_apps.Cholesky
module Jacobi = Cni_apps.Jacobi
module Kv = Cni_apps.Kv_serve
module Scenario = Cni_experiments.Scenario
module Runner = Cni_experiments.Runner

(* ------------------------------------------------------------------ *)
(* Metric catalogue: names and units exactly as in BENCHMARK.json       *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("host_heap_mb", "MB");
    ("sim_elapsed_s", "s");
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("sim_p999_us", "us");
    ("sim_throughput_ops", "1/s");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.ns_per_event", "ns");
    ("engine.max_heap_depth", "count");
    ("engine.past_clamps", "count");
    ("engine.heap_ns_per_op", "ns");
    ("engine.heap_words_per_op", "words");
    ("machine.cache_accesses", "count");
    ("machine.cache_miss_pct", "%");
    ("machine.cache_ns_per_access", "ns");
    ("machine.cache_words_per_access", "words");
    ("machine.bus_dma_bytes", "bytes");
    ("pathfinder.classifications", "count");
    ("pathfinder.classify_ns", "ns");
    ("pathfinder.words_per_classify", "words");
    ("pathfinder.unmatched", "count");
    ("nic.mc_hit_pct", "%");
    ("nic.tx_dma_bytes", "bytes");
    ("nic.interrupts", "count");
    ("nic.polls", "count");
    ("nic.poll_useful_pct", "%");
    ("nic.retransmits", "count");
    ("nic.retransmit_pct", "%");
    ("atm.frames_offered", "count");
    ("atm.frames_delivered", "count");
    ("atm.fault_drops", "count");
    ("atm.frames_unaccounted", "count");
    ("atm.hop_waits", "count");
    ("atm.route_calls", "count");
    ("atm.route_ns", "ns");
    ("atm.aal5_ns_per_frame", "ns");
    ("atm.aal5_ns_per_small_frame", "ns");
    ("aih.verify_ms", "ms");
    ("aih.exec_ns_per_activation", "ns");
    ("cluster.computation_s", "s");
    ("cluster.synch_overhead_s", "s");
    ("cluster.synch_delay_s", "s");
    ("dsm.remote_acquires", "count");
    ("dsm.diff_fetches", "count");
    ("dsm.page_fetches", "count");
    ("dsm.diff_ns_per_page", "ns");
    ("apps.hist_observe_ns", "ns");
    ("serve.served_over_offered", "ratio");
    ("trace.records_engine", "count");
    ("trace.records_nic", "count");
    ("trace.records_atm", "count");
    ("trace.records_dsm", "count");
    ("trace.tx_span_p50_us", "us");
    ("trace.tx_span_p99_us", "us");
    ("trace.barrier_span_p50_us", "us");
    ("trace.barrier_span_p99_us", "us");
    ("trace.overhead_pct", "%");
    ("attrib.engine_pct", "%");
    ("attrib.machine_pct", "%");
    ("attrib.pathfinder_pct", "%");
    ("attrib.atm_pct", "%");
    ("attrib.apps_pct", "%");
    ("attrib.unexplained_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  sim : (string * float) list;  (** the simulated end-to-end metrics *)
  fingerprint : (string * float) list;  (** values every rerun must reproduce exactly *)
  ops : int;
  failed_ops : int;
  problems : string list;  (** failed output checks and exception text *)
  layers : (string * float) list;  (** the layers' own counters after the run *)
  live_mb : float;  (** live heap with the run's state reachable; 0. when not measured *)
}

type workload = {
  run_ops : int;  (** operations one run attempts *)
  setup : unit -> unit -> unit -> outcome;
      (** the timed set-up; it returns the timed run phase, which returns
          the untimed collection of outputs, checks and counters *)
  replica : (unit -> outcome) option;
      (** serving: the same run over a cluster the benchmark owns *)
  nodes : int;
  patterns : Cni_pathfinder.Pattern.t list;  (** the channel patterns it installs *)
  headers : Bytes.t list;  (** headers of the frames it classifies *)
}

let failure ~ops problem =
  { sim = []; fingerprint = []; ops; failed_ops = ops; problems = [ problem ]; layers = []; live_mb = 0. }

let describe = function
  | Cluster.Deadlock _ as e -> "deadlock: " ^ Printexc.to_string e
  | Engine.Quiescence_timeout _ as e -> "quiescence timeout: " ^ Printexc.to_string e
  | Engine.Fiber_failure (msg, _) -> "fiber failure: " ^ msg
  | e -> "exception: " ^ Printexc.to_string e

(* the live heap while the finished run's state is still reachable:
   deterministic in the seed, unlike the peak, which swings with GC timing *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let clamp_problems cluster =
  let rs = Engine.run_stats (Cluster.engine cluster) in
  if rs.Engine.past_clamps = 0 then []
  else [ Printf.sprintf "engine.past_clamps = %d" rs.Engine.past_clamps ]

(* DSM: 16 CNI boards with AIH on the seed single switch, closed loop *)

let procs = 16

let dsm_setup () =
  let cluster = Cluster.create ~nic_kind:(Runner.cni ()) ~nodes:procs () in
  let space = Space.create ~nprocs:procs ~page_bytes:Params.default.Params.page_bytes in
  (cluster, Lrc.install cluster space ())

let dsm_outcome cluster lrcs ~work problems =
  let live_mb = live_heap_mb () in
  let problems = clamp_problems cluster @ problems in
  let elapsed = Time.to_s_float (Cluster.elapsed cluster) in
  (* a DSM run's responses are its processors' completions: 16 samples, so
     p99 and p999 both read the slowest processor *)
  let finish =
    Array.map (fun n -> Time.to_us_float (Node.report n).Node.finish_time) (Cluster.nodes cluster)
  in
  Array.sort compare finish;
  let q = Util.quantile finish in
  let sim =
    [
      ("sim_elapsed_s", elapsed);
      ("sim_p50_us", q 0.5);
      ("sim_p99_us", q 0.99);
      ("sim_p999_us", q 0.999);
      ("sim_throughput_ops", float_of_int work /. elapsed);
    ]
  in
  (* a closed loop serves everything it offers *)
  let layers = Layers.cluster cluster @ Layers.dsm lrcs @ [ ("serve.served_over_offered", 1.) ] in
  {
    sim;
    fingerprint = sim @ layers;
    ops = 1;
    failed_ops = (if problems = [] then 0 else 1);
    problems;
    layers;
    live_mb;
  }

let dsm_workload setup =
  {
    run_ops = 1;
    setup;
    replica = None;
    nodes = procs;
    patterns =
      List.map
        (fun kind -> Wire.pattern_channel_kind ~channel:Protocol.channel ~kind)
        Protocol.all_kinds;
    headers =
      List.map
        (fun kind ->
          Wire.encode
            {
              Wire.kind;
              cacheable = false;
              has_data = false;
              src = 1;
              channel = Protocol.channel;
              obj = 7;
              aux = 0;
            })
        Protocol.all_kinds;
  }

let cholesky ~seed =
  let reference = Cholesky.reference_factor (Inputs.cholesky_matrix ~seed) in
  dsm_workload (fun () ->
      let matrix = Inputs.cholesky_matrix ~seed in
      let cluster, lrcs = dsm_setup () in
      fun () ->
        let r = Cholesky.run cluster lrcs (Cholesky.default_config matrix) in
        fun () ->
          let err = Inputs.max_relative_error ~reference r.Cholesky.values in
          dsm_outcome cluster lrcs ~work:r.Cholesky.flops
            (if err <= 1e-9 then []
             else
               [ Printf.sprintf "L differs from Cholesky.reference_factor: max relative error %g" err ]))

let jacobi ~seed =
  let config = Inputs.jacobi_config ~seed in
  let expected = Inputs.jacobi_checksum config in
  dsm_workload (fun () ->
      let cluster, lrcs = dsm_setup () in
      fun () ->
        let r = Jacobi.run cluster lrcs config in
        fun () ->
          let n = config.Jacobi.n in
          dsm_outcome cluster lrcs
            ~work:((n - 2) * (n - 2) * config.Jacobi.iterations)
            (if Float.equal r.Jacobi.checksum expected then []
             else
               [
                 Printf.sprintf "checksum %.17g, sequential sweep %.17g" r.Jacobi.checksum expected;
               ]))

(* Serving: open-loop KV through Scenario.run *)

(* [latencies] (the replica's every response latency, ps) gives exact
   nearest-rank quantiles; without it they are Kv_serve.Hist's bucket
   bounds, which repeat from seed to seed *)
let serve_outcome ?latencies (r : Kv.result) =
  let quantile =
    match latencies with
    | None -> fun _ bucketed -> bucketed
    | Some ps ->
        let us = Array.map (fun v -> float_of_int v /. 1e6) ps in
        Array.sort compare us;
        fun q _ -> Util.quantile us q
  in
  let problems =
    (if r.Kv.responses = r.Kv.requests then []
     else
       [
         Printf.sprintf "%d of %d requests unanswered" (r.Kv.requests - r.Kv.responses) r.Kv.requests;
       ])
    @
    if r.Kv.gets + r.Kv.puts = r.Kv.responses then []
    else [ Printf.sprintf "gets %d + puts %d <> responses %d" r.Kv.gets r.Kv.puts r.Kv.responses ]
  in
  {
    sim =
      [
        ("sim_elapsed_s", r.Kv.elapsed_us /. 1e6);
        ("sim_p50_us", quantile 0.5 r.Kv.p50_us);
        ("sim_p99_us", quantile 0.99 r.Kv.p99_us);
        ("sim_p999_us", quantile 0.999 r.Kv.p999_us);
        ("sim_throughput_ops", r.Kv.throughput_rps);
      ];
    fingerprint = Serve_replica.fingerprint r;
    ops = r.Kv.requests;
    failed_ops = r.Kv.requests - r.Kv.responses;
    problems;
    layers = [];
    live_mb = 0.;
  }

let serving (p : Scenario.profile) =
  let preflight () =
    (match Scenario.validate p with Ok () -> [] | Error es -> es)
    @ List.filter_map
        (fun (check, verdict) ->
          match verdict with Ok _ -> None | Error e -> Some (Printf.sprintf "preflight %s: %s" check e))
        (Scenario.preflight p)
  in
  {
    run_ops = p.Scenario.clients * p.Scenario.requests_per_client;
    setup =
      (fun () ->
        let problems = preflight () in
        (* Scenario.run repeats these calls inside its run phase *)
        let (_ : _ * _) = Serve_replica.setup p in
        fun () ->
          let r = Scenario.run p in
          fun () ->
            let o = serve_outcome r in
            { o with problems = problems @ o.problems });
    replica =
      Some
        (fun () ->
          let r, cluster, latencies = Serve_replica.run p in
          let o = serve_outcome ~latencies r in
          let live_mb = live_heap_mb () in
          {
            o with
            live_mb;
            problems = clamp_problems cluster @ o.problems;
            layers =
              Layers.cluster cluster
              @ [
                  ("serve.served_over_offered", r.Kv.throughput_rps /. Scenario.offered_rps p);
                  ("apps.hist_observations", float_of_int r.Kv.responses);
                ];
          });
    nodes = p.Scenario.clients + p.Scenario.servers;
    patterns = [ Wire.pattern_channel ~channel:Mp.channel ];
    headers =
      List.map
        (fun tag ->
          Wire.encode
            {
              Wire.kind = 1;
              cacheable = false;
              has_data = false;
              src = 1;
              channel = Mp.channel;
              obj = tag;
              aux = 0;
            })
        [ Serve_replica.req_tag; Serve_replica.resp_tag ];
  }

let workloads =
  [
    ("dsm-cholesky", fun seed -> cholesky ~seed);
    ("dsm-jacobi", fun seed -> jacobi ~seed);
    ("serve-hostpath", fun seed -> serving (Inputs.serve_hostpath ~seed));
    ("serve-faulty-torus", fun seed -> serving (Inputs.serve_faulty_torus ~seed));
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

type sample = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;  (** host CPU seconds of the run phase *)
  calib_s : float;  (** the calibration kernel, timed just before the run *)
  setup_only : float list;  (** set-ups timed on their own just before the run *)
  outcome : outcome;
}

let peak_heap_words = ref 0

let note_heap () =
  let s = Gc.quick_stat () in
  peak_heap_words := max !peak_heap_words (max s.Gc.heap_words s.Gc.top_heap_words)

let peak_heap_mb () =
  note_heap ();
  float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.

(* one run: timed set-up, timed run phase, untimed collection. A full
   collection first, so no run pays for the garbage of the one before. *)
let timed w ~calib_s ~setup_only =
  Gc.compact ();
  let t0 = Util.now () in
  match Util.span "setup" w.setup with
  | exception e ->
      {
        setup_s = Util.now () -. t0;
        wall_s = 0.;
        cpu_s = 0.;
        calib_s;
        setup_only;
        outcome = failure ~ops:w.run_ops (describe e);
      }
  | run -> (
      let c1 = Util.cpu_now () in
      let t1 = Util.now () in
      let result = try Ok (Util.span "run" run) with e -> Error e in
      let wall_s = Util.now () -. t1 in
      let cpu_s = Util.cpu_now () -. c1 in
      let sample outcome = { setup_s = t1 -. t0; wall_s; cpu_s; calib_s; setup_only; outcome } in
      match result with
      | Error e -> sample (failure ~ops:w.run_ops (describe e))
      | Ok collect ->
          note_heap ();
          sample (try Util.span "collect" collect with e -> failure ~ops:w.run_ops (describe e)))

let setup_only w =
  Gc.compact ();
  let t0 = Util.now () in
  (match Util.span "setup" w.setup with _run -> () | exception _ -> ());
  Util.now () -. t0

let warmup_setups = 5
let setups_per_run = 3

(* [warmup_setups] untimed set-ups, then rounds of the calibration kernel,
   [setups_per_run] set-ups on their own and a whole run, until [seconds] of
   host time have passed (at least one round). The set-ups are spread over
   the whole process so that they meet the same host as the runs. *)
let measure w ~seconds =
  for _ = 1 to warmup_setups do
    ignore (setup_only w)
  done;
  let start = Util.now () in
  let rec loop acc =
    let calib_s = Util.calibrate () in
    let setup_only = List.init setups_per_run (fun _ -> setup_only w) in
    let acc = timed w ~calib_s ~setup_only :: acc in
    if Util.now () -. start < seconds then loop acc else List.rev acc
  in
  loop []

let first_difference a b =
  if List.map fst a <> List.map fst b then Some "different metric sets"
  else
    List.find_map
      (fun ((k, x), (_, y)) ->
        if Float.equal x y then None else Some (Printf.sprintf "%s %.17g vs %.17g" k x y))
      (List.combine a b)

(* ------------------------------------------------------------------ *)
(* Traced reruns                                                        *)
(* ------------------------------------------------------------------ *)

type pass = {
  categories : string;
  pass_wall : float;  (** host seconds of the traced run phase *)
  records : int;  (** records emitted, overwritten ones included *)
  durations : float array;  (** ascending span durations, simulated us *)
  pass_outcome : outcome;
}

(* one rerun with tracing on for [cats]: set-up untraced, run phase traced *)
let traced w ~cats ~capacity ~span_of =
  let categories = String.concat "+" (List.map Trace.category_name cats) in
  Util.span ("traced:" ^ categories) (fun () ->
      Gc.compact ();
      Trace.set_capacity capacity;
      match w.setup () with
      | exception e ->
          {
            categories;
            pass_wall = 0.;
            records = 0;
            durations = [||];
            pass_outcome = failure ~ops:w.run_ops (describe e);
          }
      | run ->
          Trace.enable ~cats ();
          let t0 = Util.now () in
          let result = try Ok (run ()) with e -> Error e in
          let pass_wall = Util.now () -. t0 in
          Trace.disable ();
          let records = Trace.emitted () in
          let durations =
            match span_of with
            | None -> [||]
            | Some (cat, label) ->
                Array.of_list
                  (List.filter_map
                     (fun s ->
                       if s.Trace.span_category = cat && s.Trace.span_label = label then
                         Some (float_of_int s.Trace.duration_ps /. 1e6)
                       else None)
                     (Trace.spans ()))
          in
          Array.sort compare durations;
          Trace.clear ();
          let pass_outcome =
            match result with
            | Ok collect -> ( try collect () with e -> failure ~ops:w.run_ops (describe e))
            | Error e -> failure ~ops:w.run_ops (describe e)
          in
          { categories; pass_wall; records; durations; pass_outcome })

(* no traced pass starts once the process is this old, which keeps a
   per-layer run well inside its 180 s limit *)
let pass_deadline_s = 140.

(* per-layer records kept for span percentiles *)
let span_capacity = 1 lsl 19

let layer_metrics w ~wall ~(base : outcome) =
  let get k = Option.value (List.assoc_opt k base.layers) ~default:0. in
  Gc.compact ();
  let kernels =
    [
      ("heap", Kernels.heap ~depth:(int_of_float (get "engine.max_heap_depth")));
      ("cache", Kernels.cache ());
      ("classify", Kernels.classify ~patterns:w.patterns ~headers:w.headers);
      ("aal5_2k", Kernels.aal5 ~bytes:2048);
      ("aal5_32", Kernels.aal5 ~bytes:32);
      ("diff", Kernels.diff ~page_bytes:Params.default.Params.page_bytes);
      ("verify", Kernels.verify ~size:w.nodes);
      ("exec", Kernels.exec ~size:w.nodes);
      ("route", Kernels.route ~nodes:64);
      ("hist", Kernels.hist ());
    ]
  in
  let cost name = List.assoc name kernels in
  let skipped = ref [] in
  let pass ?(capacity = span_capacity) ?span_of cats =
    if Util.now () -. Util.origin > pass_deadline_s then begin
      skipped := String.concat "+" (List.map Trace.category_name cats) :: !skipped;
      None
    end
    else Some (traced w ~cats ~capacity ~span_of)
  in
  let all = pass ~capacity:Trace.default_capacity Trace.categories in
  let engine = pass [ Trace.Engine ] in
  let nic = pass ~span_of:(Trace.Nic, "tx") [ Trace.Nic ] in
  let atm = pass [ Trace.Atm ] in
  let dsm = pass ~span_of:(Trace.Dsm, "barrier") [ Trace.Dsm ] in
  Trace.set_capacity Trace.default_capacity;
  let records = function Some p -> float_of_int p.records | None -> 0. in
  let span_q p q = match p with Some p -> Util.quantile p.durations q | None -> 0. in
  (* host time each layer's kernel accounts for: its run-path call count
     times its cost per call, as a share of the run phase *)
  let share count name =
    if wall > 0. then 100. *. count *. (cost name).Kernels.ns *. 1e-9 /. wall else 0.
  in
  let attrib =
    [
      ("attrib.engine_pct", share (get "engine.events") "heap");
      ("attrib.machine_pct", share (get "machine.cache_accesses") "cache");
      ("attrib.pathfinder_pct", share (get "pathfinder.classifications") "classify");
      ("attrib.atm_pct", share (get "atm.route_calls") "route");
      ("attrib.apps_pct", share (get "apps.hist_observations") "hist");
    ]
  in
  let explained = List.fold_left (fun acc (_, v) -> acc +. v) 0. attrib in
  let events = get "engine.events" in
  let metrics =
    base.layers
    @ [
        ("engine.ns_per_event", if events > 0. then wall *. 1e9 /. events else 0.);
        ("engine.heap_ns_per_op", (cost "heap").Kernels.ns);
        ("engine.heap_words_per_op", (cost "heap").Kernels.words);
        ("machine.cache_ns_per_access", (cost "cache").Kernels.ns);
        ("machine.cache_words_per_access", (cost "cache").Kernels.words);
        ("pathfinder.classify_ns", (cost "classify").Kernels.ns);
        ("pathfinder.words_per_classify", (cost "classify").Kernels.words);
        ("atm.route_ns", (cost "route").Kernels.ns);
        ("atm.aal5_ns_per_frame", (cost "aal5_2k").Kernels.ns);
        ("atm.aal5_ns_per_small_frame", (cost "aal5_32").Kernels.ns);
        ("aih.verify_ms", (cost "verify").Kernels.ns /. 1e6);
        ("aih.exec_ns_per_activation", (cost "exec").Kernels.ns);
        ("dsm.diff_ns_per_page", (cost "diff").Kernels.ns);
        ("apps.hist_observe_ns", (cost "hist").Kernels.ns);
        ("trace.records_engine", records engine);
        ("trace.records_nic", records nic);
        ("trace.records_atm", records atm);
        ("trace.records_dsm", records dsm);
        ("trace.tx_span_p50_us", span_q nic 0.5);
        ("trace.tx_span_p99_us", span_q nic 0.99);
        ("trace.barrier_span_p50_us", span_q dsm 0.5);
        ("trace.barrier_span_p99_us", span_q dsm 0.99);
        ( "trace.overhead_pct",
          match all with
          | Some p when wall > 0. -> 100. *. (p.pass_wall -. wall) /. wall
          | _ -> 0. );
      ]
    @ attrib
    @ [ ("attrib.unexplained_pct", 100. -. explained) ]
  in
  let passes = List.filter_map Fun.id [ all; engine; nic; atm; dsm ] in
  let details =
    [
      ( "kernels",
        Util.json_object
          (List.map
             (fun (name, c) ->
               (name, Util.json_numbers [ ("ns", c.Kernels.ns); ("words", c.Kernels.words) ]))
             kernels) );
      ("layers", Util.json_numbers base.layers);
      ( "traced_passes",
        Util.json_list
          (List.map
             (fun p ->
               Util.json_object
                 [
                   ("categories", Util.json_string p.categories);
                   ("wall_s", Util.json_number p.pass_wall);
                   ("records", string_of_int p.records);
                   ("spans", string_of_int (Array.length p.durations));
                 ])
             passes) );
      ("skipped_passes", Util.json_strings (List.rev !skipped));
    ]
  in
  (metrics, List.map (fun p -> p.pass_outcome) passes, details)

(* ------------------------------------------------------------------ *)
(* One benchmark process                                                *)
(* ------------------------------------------------------------------ *)

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  problems : string list;
  details : (string * string) list;  (** further artifact fields, as JSON *)
}

let sample_json s =
  Util.json_object
    [
      ("setup_s", Util.json_number s.setup_s);
      ("wall_s", Util.json_number s.wall_s);
      ("cpu_s", Util.json_number s.cpu_s);
      ("calib_s", Util.json_number s.calib_s);
      ("setup_only_s", Util.json_list (List.map Util.json_number s.setup_only));
      ("sim", Util.json_numbers s.outcome.sim);
      ("ops", string_of_int s.outcome.ops);
      ("failed", string_of_int s.outcome.failed_ops);
      ("problems", Util.json_strings s.outcome.problems);
    ]

let run ~make ~seed ~seconds ~per_layer =
  match Util.span "prepare" (fun () -> make seed) with
  | exception e ->
      {
        correct = false;
        attempted = 1;
        failed = 1;
        metrics = [];
        problems = [ "prepare: " ^ describe e ];
        details = [];
      }
  | w ->
      let replica =
        Option.map
          (fun f ->
            Util.span "replica" (fun () -> try f () with e -> failure ~ops:w.run_ops (describe e)))
          w.replica
      in
      let samples = measure w ~seconds in
      let outcomes = List.map (fun s -> s.outcome) samples in
      let wall = Util.fast_quarter (List.map (fun s -> s.wall_s) samples) in
      let calib = Util.fast_quarter (List.map (fun s -> s.calib_s) samples) in
      let metrics, traced_outcomes, details =
        if per_layer then
          let base =
            match replica with Some o -> o | None -> List.nth outcomes (List.length outcomes - 1)
          in
          layer_metrics w ~wall ~base
        else
          (* the serving replica's quantiles are exact; its run is otherwise
             the same as every timed one *)
          let sim =
            match List.find_opt (fun o -> o.sim <> []) (Option.to_list replica @ outcomes) with
            | Some o -> o.sim
            | None -> []
          in
          ( [
              (* host seconds at the reference host's speed (Util.calibrate) *)
              ("wall_s", wall *. Util.calib_reference_s /. calib);
              ( "setup_s",
                Util.median (List.concat_map (fun s -> s.setup_s :: s.setup_only) samples) );
              ( "host_heap_mb",
                List.fold_left (fun acc o -> Float.max acc o.live_mb) 0.
                  (Option.to_list replica @ outcomes) );
            ]
            @ sim,
            [],
            [] )
      in
      let reference =
        List.find_map (fun o -> if o.fingerprint = [] then None else Some o.fingerprint) outcomes
      in
      let differ what os =
        match reference with
        | None -> []
        | Some r ->
            List.filter_map
              (fun o ->
                if o.fingerprint = [] then None
                else Option.map (fun d -> what ^ ": " ^ d) (first_difference r o.fingerprint))
              os
      in
      let all = outcomes @ Option.to_list replica @ traced_outcomes in
      let problems =
        List.sort_uniq compare
          (List.concat_map (fun (o : outcome) -> o.problems) all
          @ differ "rerun with the same seed differs" outcomes
          @ differ "serving replica differs from Scenario.run" (Option.to_list replica)
          @ differ "traced rerun differs" traced_outcomes)
      in
      let attempted = List.fold_left (fun acc o -> acc + o.ops) 0 all in
      let failed = List.fold_left (fun acc o -> acc + o.failed_ops) 0 all in
      {
        correct = problems = [] && failed = 0;
        attempted = max 1 attempted;
        failed;
        metrics;
        problems;
        details =
          [
            ("wall_fast_quarter_s", Util.json_number wall);
            ("calib_fast_quarter_s", Util.json_number calib);
            ("peak_heap_mb", Util.json_number (peak_heap_mb ()));
            ("runs", Util.json_list (List.map sample_json samples));
          ]
          @ details;
      }

let result_line r catalogue =
  let value name =
    match List.assoc_opt name r.metrics with Some v when Float.is_finite v -> v | _ -> 0.
  in
  Util.json_object
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        Util.json_object
          (List.map
             (fun (name, unit) ->
               ( name,
                 Util.json_object
                   [ ("value", Util.json_number (value name)); ("unit", Util.json_string unit) ] ))
             catalogue) );
    ]

let write_artifact ~dir ~workload ~seed ~seconds ~trace r =
  let file = Filename.concat dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed trace) in
  try
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let oc = open_out file in
    output_string oc
      (Util.json_object
         ([
            ("workload", Util.json_string workload);
            ("seed", string_of_int seed);
            ("seconds", Util.json_number seconds);
            ("trace", string_of_int trace);
            ("correct", string_of_bool r.correct);
            ("attempted", string_of_int r.attempted);
            ("failed", string_of_int r.failed);
            ("problems", Util.json_strings r.problems);
            ("metrics", Util.json_numbers r.metrics);
          ]
         @ r.details
         @ [ ("spans", Util.spans_json ()) ]));
    output_char oc '\n';
    close_out oc
  with e -> Printf.eprintf "perfbench: artifact not written: %s\n%!" (Printexc.to_string e)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref ".bench_out" in
  let names = String.concat ", " (List.map fst workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ names);
      ("--seed", Arg.Set_int seed, "N  seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S  host seconds the run phase is repeated for");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out_dir, "DIR  directory of the run artifact (default .bench_out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some make -> make
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload names;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let r = run ~make ~seed:!seed ~seconds:!seconds ~per_layer:(!trace = 1) in
  write_artifact ~dir:!out_dir ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace r;
  List.iter (fun p -> Printf.eprintf "perfbench: problem: %s\n" p) r.problems;
  Printf.eprintf "perfbench: %s seed %d: %s, %d of %d operations failed (%.1f s)\n%!" !workload
    !seed
    (if r.correct then "correct" else "NOT correct")
    r.failed r.attempted
    (Util.now () -. Util.origin);
  print_endline (result_line r (if !trace = 1 then per_layer else end_to_end))
