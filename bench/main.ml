(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 3), the ablations from DESIGN.md section 7, and a set
   of Bechamel microbenchmarks of the simulator substrate.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --quick      -- scaled-down runs
     dune exec bench/main.exe -- --only fig4,table5
     dune exec bench/main.exe -- --csv out    -- also write CSV files
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --no-substrate
     dune exec bench/main.exe -- --json BENCH_7.json   -- persist a baseline
     dune exec bench/main.exe -- --quick --compare BENCH_6.json  -- CI gate *)

module Figures = Cni_experiments.Figures
module Ablations = Cni_experiments.Ablations
module Report = Cni_experiments.Report
module Baseline = Cni_experiments.Bench_baseline

let experiments = Figures.all @ Ablations.all

(* Every report's rows, pinned in the JSON baseline as one more metric (not
   printed), so --compare sees each cell and not only the headline scalars.
   Reports whose cells hold wall-clock time are left out. The digest keeps
   48 bits: exact in a JSON double, and no two digests fall within the
   1e-9 relative tolerance by accident. *)
let undigested = [ "microbench-classifier"; "microbench-aih" ]

let rows_digest (r : Report.t) =
  let text = String.concat "\n" (List.map (String.concat "\t") r.Report.rows) in
  let d = Bytes.unsafe_of_string (Digest.string text) in
  float_of_int (Int64.to_int (Bytes.get_int64_le d 0) land 0xFFFF_FFFF_FFFF)

let baseline_metrics id (r : Report.t) =
  if List.mem id undigested then r.Report.metrics
  else r.Report.metrics @ [ ("rows_digest", rows_digest r) ]

(* ------------------------------------------------------------------ *)
(* Substrate microbenchmarks (Bechamel)                                *)
(* ------------------------------------------------------------------ *)

(* substrate benchmarks under the zero-alloc contract: --compare fails if any
   of these ever allocates per run again, on any machine. The cache's level
   arrays are too large for the minor heap, so a run of the cache benchmark
   allocates only the cache's own small records there. *)
let zero_alloc_contract = [ "trace: 10k emit (disabled)"; "cache: 10k line accesses" ]

let substrate_tests () =
  let open Bechamel in
  (* the machine-speed anchor --compare rescales a baseline by
     (Bench_baseline.calibration_name): hash-table updates and short-lived
     list cells, the same mix of memory traffic and minor-heap allocation as
     the simulator, so a machine that slows the simulator slows the anchor
     with it (a pure integer spin barely moves when the simulator slows by
     2x) *)
  let calibration =
    Test.make ~name:Baseline.calibration_name
      (Staged.stage (fun () ->
           let h = Hashtbl.create 4096 in
           for i = 1 to 200_000 do
             Hashtbl.replace h (i * 7919 land 4095) i
           done;
           let rec cells n acc = if n = 0 then acc else cells (n - 1) (n :: acc) in
           let total = ref 0 in
           for _ = 1 to 100_000 do
             total := !total + List.length (Sys.opaque_identity (cells 10 []))
           done;
           ignore (Sys.opaque_identity (Hashtbl.length h + !total))))
  in
  let engine_events =
    Test.make ~name:"engine: 10k timer events"
      (Staged.stage (fun () ->
           let eng = Cni_engine.Engine.create () in
           for i = 1 to 10_000 do
             Cni_engine.Engine.at eng (Cni_engine.Time.ns i) (fun () -> ())
           done;
           Cni_engine.Engine.run eng))
  in
  let heap_ops =
    Test.make ~name:"heap: 10k push+pop"
      (Staged.stage (fun () ->
           let h = Cni_engine.Heap.create () in
           for i = 1 to 10_000 do
             Cni_engine.Heap.add h ~key:(i * 7 mod 1000) ~seq:i i
           done;
           while not (Cni_engine.Heap.is_empty h) do
             ignore (Cni_engine.Heap.pop_min h)
           done))
  in
  (* mutable state (the cache's line array, the classifier's dispatch index)
     is created INSIDE the staged thunk: a structure built once outside would
     warm across Bechamel iterations, so every run after the first would
     measure pre-warmed state instead of the advertised workload *)
  let cache_access =
    Test.make ~name:"cache: 10k line accesses"
      (Staged.stage (fun () ->
           let cache = Cni_machine.Cache.create Cni_machine.Params.default in
           for i = 0 to 9_999 do
             ignore (Cni_machine.Cache.access_line cache ~addr:(i * 32 * 7) ~write:(i land 1 = 0))
           done))
  in
  let classifier =
    (* the encoded header is immutable input data, so it may stay outside *)
    let hdr =
      Cni_nic.Wire.encode
        {
          Cni_nic.Wire.kind = 1;
          cacheable = false;
          has_data = false;
          src = 0;
          channel = 42;
          obj = 0;
          aux = 0;
        }
    in
    Test.make ~name:"pathfinder: 1k classifications vs 64 patterns"
      (Staged.stage (fun () ->
           let cls = Cni_pathfinder.Classifier.create () in
           for chan = 0 to 63 do
             ignore
               (Cni_pathfinder.Classifier.add cls (Cni_nic.Wire.pattern_channel ~channel:chan) chan)
           done;
           for _ = 1 to 1000 do
             ignore (Cni_pathfinder.Classifier.classify cls hdr)
           done))
  in
  let aal5 =
    let frame = Bytes.make 2048 'x' in
    Test.make ~name:"aal5: segment+reassemble 2KB"
      (Staged.stage (fun () ->
           let cells = Cni_atm.Aal5.segment ~vpi:0 ~vci:7 frame in
           let r = Cni_atm.Aal5.Reassembler.create () in
           List.iter (fun c -> ignore (Cni_atm.Aal5.Reassembler.push r c)) cells))
  in
  let diff =
    let twin = Bytes.make 2048 '\000' in
    let current = Bytes.copy twin in
    for w = 0 to 255 do
      if w mod 3 = 0 then Bytes.set_int64_ne current (w * 8) (Int64.of_int w)
    done;
    Test.make ~name:"dsm: diff create+apply 2KB page"
      (Staged.stage (fun () ->
           let d = Cni_dsm.Diff.create ~twin ~current in
           let target = Bytes.copy twin in
           Cni_dsm.Diff.apply d target))
  in
  (* the per-frame board and wire pipeline: a host fiber posts 1k frames on
     one CNI board (AIH off, no faults), and each crosses the fabric to a
     counting handler on the other board through the host wakeup path *)
  let nic_frames =
    let module Nic = Cni_nic.Nic in
    let p = Cni_machine.Params.default in
    let header =
      Cni_nic.Wire.encode
        {
          Cni_nic.Wire.kind = 0;
          cacheable = false;
          has_data = false;
          src = 0;
          channel = 7;
          obj = 0;
          aux = 0;
        }
    in
    let host =
      {
        Nic.host_waiting = (fun () -> false);
        steal = ignore;
        invalidate_range = (fun ~addr:_ ~bytes:_ -> ());
        overhead = ignore;
      }
    in
    let kind = `Cni { Nic.default_cni_options with Nic.aih = false } in
    Test.make ~name:"nic: 1k frames between two CNI boards"
      (Staged.stage (fun () ->
           let eng = Cni_engine.Engine.create () in
           let fabric = Cni_atm.Fabric.create eng p ~nodes:2 in
           let board node = Nic.create ~kind eng (Cni_machine.Bus.create eng p) fabric ~node ~host in
           let tx = board 0 and rx = board 1 in
           let got = ref 0 in
           ignore
             (Nic.install_handler rx ~pattern:(Cni_nic.Wire.pattern_channel ~channel:7)
                (fun _ _ -> incr got));
           Cni_engine.Engine.spawn eng (fun () ->
               for _ = 1 to 1000 do
                 Nic.send tx ~dst:1 ~header ~body_bytes:64 ~data:Nic.No_data ~payload:()
               done);
           Cni_engine.Engine.run eng;
           if !got <> 1000 then failwith "nic kernel: frames lost"))
  in
  (* the zero-allocation contract of the disabled trace hot path: emit takes
     only immediates and unboxed labels, and builds no record unless the
     category check passes — minor words/run must stay at 0 *)
  let trace_disabled =
    Test.make ~name:"trace: 10k emit (disabled)"
      (Staged.stage (fun () ->
           Cni_engine.Trace.disable ();
           for i = 1 to 10_000 do
             Cni_engine.Trace.emit ~t_ps:i ~node:0 Cni_engine.Trace.Nic ~label:"bench"
               ~payload:i
           done))
  in
  let trace_enabled =
    Test.make ~name:"trace: 10k emit (enabled)"
      (Staged.stage (fun () ->
           Cni_engine.Trace.enable ();
           for i = 1 to 10_000 do
             Cni_engine.Trace.emit ~t_ps:i ~node:0 Cni_engine.Trace.Nic ~label:"bench"
               ~payload:i
           done;
           Cni_engine.Trace.disable ()))
  in
  [
    calibration;
    engine_events;
    heap_ops;
    cache_access;
    classifier;
    aal5;
    diff;
    nic_frames;
    trace_disabled;
    trace_enabled;
  ]

(* Runs the Bechamel suite, prints the human table, and returns the per-test
   OLS estimates for the persisted baseline. *)
let run_substrate () =
  let open Bechamel in
  print_endline "== substrate microbenchmarks (Bechamel, wall-clock of the simulator itself) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = Toolkit.Instance.minor_allocated in
  let instances = [ clock; alloc ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let times = Analyze.all ols clock results in
      let allocs = Analyze.all ols alloc results in
      Hashtbl.iter
        (fun name result ->
          let words =
            match Option.map Analyze.OLS.estimates (Hashtbl.find_opt allocs name) with
            | Some (Some [ w ]) -> Some w
            | _ -> None
          in
          let words_str =
            match words with
            | Some w -> Printf.sprintf "%14.1f mnr words/run" w
            | None -> "(no alloc estimate)"
          in
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-48s %14.1f ns/run  %s\n%!" name est words_str;
              collected :=
                ( name,
                  {
                    Baseline.ns_per_run = est;
                    minor_words_per_run = Option.value words ~default:Float.nan;
                  } )
                :: !collected
          | _ -> Printf.printf "  %-48s (no estimate)\n%!" name)
        times)
    (substrate_tests ());
  print_newline ();
  List.rev !collected

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let only = ref [] in
  let csv_dir = ref None in
  let list_only = ref false in
  let substrate = ref true in
  let json_out = ref None in
  let compare_against = ref None in
  let threshold_pct = ref 15.0 in
  let args =
    [
      ("--quick", Arg.Set Figures.quick, "scale runs down (shapes preserved)");
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "comma-separated experiment ids" );
      ("--csv", Arg.String (fun d -> csv_dir := Some d), "also write CSV files to this directory");
      ("--list", Arg.Set list_only, "list experiment ids and exit");
      ("--no-substrate", Arg.Clear substrate, "skip the Bechamel substrate microbenchmarks");
      ( "--json",
        Arg.String (fun f -> json_out := Some f),
        "write this run's results as a machine-readable baseline (BENCH_<pr>.json)" );
      ( "--compare",
        Arg.String (fun f -> compare_against := Some f),
        "compare this run against a committed baseline JSON; exit 1 on regression" );
      ( "--compare-threshold",
        Arg.Set_float threshold_pct,
        "relative time-regression threshold for --compare, in percent (default 15)" );
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unknown argument " ^ a))) "bench/main.exe [options]";
  if !list_only then begin
    List.iter (fun (id, _) -> print_endline id) experiments;
    (* the substrate suite is addressable with --only like any experiment *)
    print_endline "substrate";
    exit 0
  end;
  let selected =
    match !only with
    | [] -> experiments
    | ids ->
        List.iter
          (fun id ->
            if id <> "substrate" && not (List.mem_assoc id experiments) then begin
              Printf.eprintf "unknown experiment id %S (use --list)\n" id;
              exit 2
            end)
          ids;
        List.filter (fun (id, _) -> List.mem id ids) experiments
  in
  let substrate_selected = !substrate && (!only = [] || List.mem "substrate" !only) in
  Printf.printf "CNI reproduction bench harness (%d experiment(s)%s%s)\n\n"
    (List.length selected + if substrate_selected then 1 else 0)
    (if substrate_selected then ", incl. substrate" else "")
    (if !Figures.quick then ", quick mode" else "");
  let t_start = Unix.gettimeofday () in
  let experiment_results =
    List.map
      (fun (id, f) ->
        let t0 = Unix.gettimeofday () in
        let report = f () in
        Report.print report;
        Option.iter
          (fun dir ->
            Report.write_csv ~dir report;
            Report.write_metrics_json ~dir report)
          !csv_dir;
        let wall_s = Unix.gettimeofday () -. t0 in
        Printf.printf "  [%s finished in %.1fs]\n\n%!" id wall_s;
        (id, { Baseline.wall_s; metrics = baseline_metrics id report }))
      selected
  in
  let substrate_results = if substrate_selected then run_substrate () else [] in
  Printf.printf "total bench time: %.1fs\n" (Unix.gettimeofday () -. t_start);
  let label =
    match !json_out with
    | Some f -> Filename.remove_extension (Filename.basename f)
    | None -> "bench"
  in
  let current =
    Baseline.make ~label ~quick:!Figures.quick ~zero_alloc:zero_alloc_contract
      ~substrate:substrate_results ~experiments:experiment_results ()
  in
  Option.iter
    (fun file ->
      Baseline.save ~file current;
      Printf.printf "baseline written to %s\n" file)
    !json_out;
  match !compare_against with
  | None -> ()
  | Some file -> (
      match Baseline.load ~file with
      | Error msg ->
          Printf.eprintf "cannot load baseline %s: %s\n" file msg;
          exit 2
      | Ok baseline ->
          Printf.printf "\n== compare against %s (label %S) ==\n" file baseline.Baseline.label;
          let verdict =
            Baseline.compare ~baseline ~current ~threshold:(!threshold_pct /. 100.) ()
          in
          Format.printf "%a" Baseline.pp_verdict verdict;
          if not (Baseline.ok verdict) then exit 1)
