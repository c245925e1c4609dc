(* cni_sim: command-line front end to the simulator.

   Examples:
     cni_sim params
     cni_sim run --app jacobi --n 256 --procs 8
     cni_sim run --app cholesky --matrix bcsstk14 --procs 8 --nic standard
     cni_sim run --app water --molecules 216 --procs 16 --mc-kb 64
     cni_sim latency --bytes 4096 *)

module Time = Cni_engine.Time
module Trace = Cni_engine.Trace
module Stats = Cni_engine.Stats
module Params = Cni_machine.Params
module Cholesky = Cni_apps.Cholesky
module Sparse = Cni_apps.Sparse
module Runner = Cni_experiments.Runner
module Microbench = Cni_experiments.Microbench
module Report = Cni_experiments.Report
module Check = Cni_experiments.Check
module Scenario = Cni_experiments.Scenario
module Topology = Cni_atm.Topology
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let nic_kind =
  Arg.(
    value
    & opt (enum Scenario.nic_names) Scenario.Cni
    & info [ "nic" ] ~doc:"Network interface: $(b,cni), $(b,osiris) or $(b,standard).")

let procs = Arg.(value & opt int 8 & info [ "p"; "procs" ] ~doc:"Number of workstation nodes.")
let page_bytes = Arg.(value & opt int 2048 & info [ "page-bytes" ] ~doc:"Shared page size.")
let mc_kb = Arg.(value & opt int 32 & info [ "mc-kb" ] ~doc:"Message Cache size in KB (0 disables).")
let no_aih = Arg.(value & flag & info [ "no-aih" ] ~doc:"Run protocol handlers on the host.")

let unrestricted =
  Arg.(value & flag & info [ "unrestricted-cells" ] ~doc:"Mythical ATM with unlimited cell size (Table 5).")

let topology_arg =
  let topo_conv =
    Arg.conv
      ( (fun s -> Topology.kind_of_string s |> Result.map_error (fun m -> `Msg m)),
        fun fmt k -> Format.pp_print_string fmt (Topology.kind_to_string k) )
  in
  Arg.(
    value & opt topo_conv Topology.Single
    & info [ "topology" ]
        ~doc:
          "Fabric shape: $(b,single) (the paper's central switch), $(b,fat-tree) or \
           $(b,fat-tree:RADIX) (two-level folded Clos), $(b,torus) or $(b,torus:XxYxZ) \
           (3D torus, dimension-order routed).")

let rx_policy_arg =
  Arg.(
    value
    & opt (enum Scenario.rx_names) Scenario.Hybrid
    & info [ "rx-policy" ]
        ~doc:
          "CNI receive wakeup policy for host-resident handlers: $(b,interrupt), $(b,poll), \
           $(b,hybrid) (poll only while waiting on the network; the paper's design) or \
           $(b,adaptive) (EWMA arrival-rate estimator picks the mode, with hysteresis).")

let rx_batch_arg =
  Arg.(
    value & opt int 1
    & info [ "rx-batch" ]
        ~doc:
          "Receive coalescing depth: one host wakeup drains up to this many queued frames \
           (1 = one wakeup per frame).")

let make_params ~page ~cells =
  let p = { Params.default with Params.page_bytes = page } in
  if cells then { p with Params.cell_payload_bytes = 1 lsl 26 } else p

(* The verdict doctor reports for [Runner.build]; every command that builds
   a cluster reports a rejected configuration under it too. *)
let install_check = "protocol stacks install"

(* A configuration a command's build step rejects is reported the way
   doctor reports it — one FAIL line naming the problem — and the command
   exits 1. The microbenchmark and chaos harnesses build inside one call
   and raise their configuration errors there, before the first event, so
   [Check.catch] around the call yields the same error. *)
let built label = function
  | Ok v -> v
  | Error msg ->
      ignore (Check.print stderr [ (label, Error msg) ]);
      exit 1

let make_kind ?(rx_policy = Scenario.Hybrid) ?(rx_batch = 1) nic ~mc_kb ~no_aih =
  match nic with
  | Scenario.Standard -> Runner.standard
  | Scenario.Osiris -> Runner.osiris
  | Scenario.Cni ->
      Runner.cni ~mc_bytes:(mc_kb * 1024) ~aih:(not no_aih)
        ~rx_policy:(Scenario.to_rx_policy rx_policy) ~rx_batch ()

(* ------------------------------------------------------------------ *)
(* Observability options                                               *)
(* ------------------------------------------------------------------ *)

let parse_trace_cats spec =
  if String.lowercase_ascii spec = "all" then Ok Trace.categories
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
          match Trace.category_of_name (String.trim name) with
          | Some c -> go (c :: acc) rest
          | None ->
              Error
                (`Msg
                   (Printf.sprintf "unknown category %S (expected all, engine, nic, dsm, atm, app)"
                      name)))
    in
    go [] (String.split_on_char ',' spec)

let cats_conv =
  Arg.conv
    ( parse_trace_cats,
      fun ppf cats ->
        Format.pp_print_string ppf (String.concat "," (List.map Trace.category_name cats)) )

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some Trace.categories) (some cats_conv) None
    & info [ "trace" ] ~docv:"CATS"
        ~doc:
          "Enable structured tracing. $(docv) is $(b,all) or a comma-separated subset of \
           $(b,engine), $(b,nic), $(b,dsm), $(b,atm), $(b,app).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the trace to $(docv) after the run: CSV when the name ends in $(b,.csv), \
           JSON lines otherwise. Without this, $(b,--trace) prints to stderr.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the full metrics-registry snapshot as JSON to $(docv).")

let setup_trace spec = Option.iter (fun cats -> Trace.enable ~cats ()) spec

let finish_trace ~spec ~out =
  if spec <> None then begin
    (match out with
    | Some file ->
        let oc = open_out file in
        if Filename.check_suffix file ".csv" then Trace.write_csv oc else Trace.write_jsonl oc;
        close_out oc;
        Printf.eprintf "trace: %d records written to %s (%d emitted, %d overwritten)\n%!"
          (Trace.length ()) file (Trace.emitted ()) (Trace.dropped ())
    | None -> Trace.write_human stderr);
    Trace.disable ()
  end

let write_metrics ~out snapshot =
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Stats.Registry.snapshot_to_json snapshot);
      output_char oc '\n';
      close_out oc)
    out

(* ------------------------------------------------------------------ *)
(* Fault injection options                                             *)
(* ------------------------------------------------------------------ *)

module Faults = Cni_atm.Faults

let loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Per-cell loss probability injected into the fabric. Any nonzero fault rate \
           enables the NIC reliable-delivery protocol (acks, retransmission with backoff, \
           duplicate suppression).")

let corrupt_arg =
  Arg.(
    value & opt float 0.
    & info [ "corrupt" ] ~docv:"P"
        ~doc:
          "Per-cell corruption probability: affected frames arrive but fail the AAL5 CRC \
           and are dropped at the receiving board, then recovered by retransmission.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the fault model's random stream (runs are reproducible per seed). Default: \
           the $(b,--schedule) file's seed, else 42; an explicit value wins over the file's.")

let window_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ n; a; b ] -> (
        try
          let node = int_of_string (String.trim n)
          and from_us = int_of_string (String.trim a)
          and upto_us = int_of_string (String.trim b) in
          Ok { Faults.w_node = node; w_from = Time.us from_us; w_upto = Time.us upto_us }
        with Failure _ -> Error (`Msg "expected NODE:FROM_US:UPTO_US (integers)"))
    | _ -> Error (`Msg "expected NODE:FROM_US:UPTO_US")
  in
  let print ppf (w : Faults.window) =
    Format.fprintf ppf "%d:%.0f:%.0f" w.Faults.w_node
      (Time.to_us_float w.Faults.w_from)
      (Time.to_us_float w.Faults.w_upto)
  in
  Arg.conv (parse, print)

let link_down_arg =
  Arg.(
    value & opt_all window_conv []
    & info [ "link-down" ] ~docv:"NODE:FROM_US:UPTO_US"
        ~doc:
          "Sever $(b,NODE)'s link between the two times (microseconds, end exclusive); \
           every frame entering or leaving it is discarded. Repeatable.")

let schedule_conv =
  let parse file =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> (
        match Faults.config_of_string s with
        | Ok c -> Ok c
        | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" file msg)))
    | exception Sys_error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf (c : Faults.config) -> Format.pp_print_string ppf (Faults.config_to_string c))

let schedule_arg =
  Arg.(
    value
    & opt (some schedule_conv) None
    & info [ "schedule" ] ~docv:"FILE"
        ~doc:
          "Load a declarative fault schedule (seed, probabilities, link-down windows and \
           timed node crash/restart events) from $(docv); see DESIGN.md for the format. \
           Other fault flags add on top of it.")

let crash_conv =
  let parse s =
    let fields = String.split_on_char ':' s in
    let scrub, fields =
      match List.rev fields with
      | "scrub" :: rest -> (true, List.rev rest)
      | _ -> (false, fields)
    in
    match fields with
    | [ n; a; d ] -> (
        try
          let node = int_of_string (String.trim n)
          and at_us = int_of_string (String.trim a)
          and down_us = int_of_string (String.trim d) in
          Ok (node, Time.us at_us, Time.us down_us, scrub)
        with Failure _ -> Error (`Msg "expected NODE:AT_US:DOWN_US[:scrub] (integers)"))
    | _ -> Error (`Msg "expected NODE:AT_US:DOWN_US[:scrub]")
  in
  let print ppf (node, at, down, scrub) =
    Format.fprintf ppf "%d:%.0f:%.0f%s" node (Time.to_us_float at) (Time.to_us_float down)
      (if scrub then ":scrub" else "")
  in
  Arg.conv (parse, print)

let crash_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "crash" ] ~docv:"NODE:AT_US:DOWN_US[:scrub]"
        ~doc:
          "Crash $(b,NODE)'s board at $(b,AT_US) and restart it $(b,DOWN_US) later; the \
           host freezes meanwhile, and at the restart the board re-sends every frame not \
           yet acknowledged. With $(b,:scrub) the board memory is wiped and handlers are \
           re-verified and re-installed at restart. Repeatable.")

let crash_events crash =
  List.concat_map
    (fun (node, at, down, scrub) ->
      [
        { Faults.e_at = at; e_node = node; e_fault = Faults.Crash { scrub } };
        { Faults.e_at = Time.(at + down); e_node = node; e_fault = Faults.Restart };
      ])
    crash

let make_faults ~seed ~loss ~corrupt ~link_down ~schedule ~crash =
  let base = Option.value schedule ~default:Faults.none in
  let cfg =
    {
      base with
      Faults.seed = Option.value seed ~default:base.Faults.seed;
      cell_loss = (if loss > 0. then loss else base.Faults.cell_loss);
      cell_corrupt = (if corrupt > 0. then corrupt else base.Faults.cell_corrupt);
      link_down = base.Faults.link_down @ link_down;
      schedule = base.Faults.schedule @ crash_events crash;
    }
  in
  if Faults.is_none cfg then None else Some cfg

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let app_conv = Arg.enum [ ("jacobi", `Jacobi); ("water", `Water); ("cholesky", `Cholesky) ]
let app_arg = Arg.(value & opt app_conv `Jacobi & info [ "app" ] ~doc:"jacobi, water or cholesky.")
let n = Arg.(value & opt int 256 & info [ "size" ] ~doc:"Jacobi matrix dimension (n).")
let iterations = Arg.(value & opt int 16 & info [ "iterations" ] ~doc:"Jacobi iterations.")
let molecules = Arg.(value & opt int 216 & info [ "molecules" ] ~doc:"Water molecules.")

let matrix_conv =
  Arg.enum [ ("bcsstk14", `B14); ("bcsstk15", `B15); ("small", `Small) ]

let matrix =
  Arg.(value & opt matrix_conv `B14 & info [ "matrix" ] ~doc:"Cholesky input (bcsstk14-like, bcsstk15-like or small).")

let nic_collectives_arg =
  Arg.(
    value & flag
    & info [ "nic-collectives" ]
        ~doc:
          "Run DSM barriers on the boards' combining tree (NIC-resident collectives) \
           instead of the centralised node-0 manager.")

let barrier_impl nic_collectives = if nic_collectives then `Nic_collective else `Centralised

let application app ~n ~iterations ~molecules ~matrix =
  match app with
  | `Jacobi -> Runner.jacobi ~n ~iterations
  | `Water -> Runner.water ~molecules
  | `Cholesky ->
      Runner.cholesky
        (match matrix with
        | `B14 -> Runner.bcsstk14
        | `B15 -> lazy (Cholesky.bcsstk15_like ())
        | `Small -> lazy (Sparse.stiffness_like ~n:300 ~dofs:3 ~seed:1))

let run_cmd =
  let doc = "Run a benchmark application on a simulated cluster." in
  let run app nic procs topology page mc_kb no_aih rx_policy rx_batch cells n iterations
      molecules matrix loss corrupt link_down fault_seed schedule crash nic_collectives trace
      trace_out metrics_out =
    let params = make_params ~page ~cells in
    let kind = make_kind ~rx_policy ~rx_batch nic ~mc_kb ~no_aih in
    let faults =
      make_faults ~seed:fault_seed ~loss ~corrupt ~link_down ~schedule ~crash
    in
    setup_trace trace;
    let stacks =
      built install_check
        (Runner.build ~params ?faults ~topology ~barrier_impl:(barrier_impl nic_collectives)
           ~kind ~procs ())
    in
    let r =
      match Runner.exec stacks (application app ~n ~iterations ~molecules ~matrix) with
      | r -> r
      | exception e ->
          (* a run that does not complete is a structured outcome, reported
             as chaos reports it: one FAIL line, exit 2 *)
          finish_trace ~spec:trace ~out:trace_out;
          ignore (Check.print stdout [ Check.run_failure e ]);
          exit 2
    in
    finish_trace ~spec:trace ~out:trace_out;
    write_metrics ~out:metrics_out r.Runner.metrics;
    Printf.printf "elapsed            %s  (%.3f x 10^9 CPU cycles)\n"
      (Format.asprintf "%a" Time.pp r.Runner.elapsed)
      (r.Runner.elapsed_cycles /. 1e9);
    Printf.printf "computation        %s\n" (Format.asprintf "%a" Time.pp r.Runner.computation);
    Printf.printf "synch overhead     %s\n" (Format.asprintf "%a" Time.pp r.Runner.synch_overhead);
    Printf.printf "synch delay        %s\n" (Format.asprintf "%a" Time.pp r.Runner.synch_delay);
    Printf.printf "network packets    %d (%d wire bytes)\n" r.Runner.packets r.Runner.wire_bytes;
    if topology <> Topology.Single then begin
      Printf.printf "topology           %s\n" (Topology.kind_to_string topology);
      Printf.printf "fabric contention  hop-waits=%d banyan-conflicts=%d delivered=%d/%d\n"
        r.Runner.hop_waits r.Runner.banyan_conflicts r.Runner.delivered_packets
        r.Runner.offered_packets
    end;
    Printf.printf "cache hit ratio    %.1f%%\n" r.Runner.hit_ratio;
    Printf.printf "host interrupts    %d\n" r.Runner.host_interrupts;
    Printf.printf "host polls         %d (%d wasted)\n" r.Runner.polls r.Runner.wasted_polls;
    Printf.printf "checksum           %.17g\n" r.Runner.checksum;
    Printf.printf "engine             %d events, digest %d\n" r.Runner.events r.Runner.digest;
    if faults <> None then
      Printf.printf "faults             %d frames destroyed, %d retransmits\n"
        r.Runner.fault_drops r.Runner.retransmits;
    if r.Runner.message_mix <> [] then begin
      Printf.printf "protocol traffic  ";
      List.iter (fun (k, n) -> Printf.printf " %s=%d" k n) r.Runner.message_mix;
      print_newline ()
    end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ app_arg $ nic_kind $ procs $ topology_arg $ page_bytes $ mc_kb $ no_aih
      $ rx_policy_arg $ rx_batch_arg $ unrestricted $ n $ iterations $ molecules $ matrix
      $ loss_arg $ corrupt_arg $ link_down_arg $ fault_seed_arg $ schedule_arg $ crash_arg
      $ nic_collectives_arg $ trace_arg $ trace_out $ metrics_out)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let doc = "Sweep processor counts for one application, both interfaces." in
  let run app page mc_kb no_aih cells n iterations molecules matrix =
    let params = make_params ~page ~cells in
    let application = application app ~n ~iterations ~molecules ~matrix in
    Printf.printf "%5s  %12s  %12s  %8s  %8s  %6s\n" "procs" "cni" "standard" "sp-cni"
      "sp-std" "hit-%";
    let t1c = ref 1.0 and t1s = ref 1.0 in
    List.iter
      (fun procs ->
        let run kind =
          Runner.exec (built install_check (Runner.build ~params ~kind ~procs ())) application
        in
        let rc = run (make_kind Scenario.Cni ~mc_kb ~no_aih) in
        let rs = run Runner.standard in
        let tc = Time.to_s_float rc.Runner.elapsed and ts = Time.to_s_float rs.Runner.elapsed in
        if procs = 1 then begin
          t1c := tc;
          t1s := ts
        end;
        Printf.printf "%5d  %12s  %12s  %8.2f  %8.2f  %6.1f\n%!" procs
          (Format.asprintf "%a" Time.pp rc.Runner.elapsed)
          (Format.asprintf "%a" Time.pp rs.Runner.elapsed)
          (!t1c /. tc) (!t1s /. ts) rc.Runner.hit_ratio)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ app_arg $ page_bytes $ mc_kb $ no_aih $ unrestricted $ n $ iterations
      $ molecules $ matrix)

(* ------------------------------------------------------------------ *)
(* latency                                                             *)
(* ------------------------------------------------------------------ *)

let latency_cmd =
  let doc = "One-way node-to-node latency (Figure 14 microbenchmark)." in
  let bytes = Arg.(value & opt int 4096 & info [ "bytes" ] ~doc:"Message size.") in
  let run nic bytes page mc_kb cells =
    let params = make_params ~page ~cells in
    let kind = make_kind nic ~mc_kb ~no_aih:true in
    let t =
      built install_check (Check.catch (fun () -> Microbench.latency ~params ~kind ~bytes ()))
    in
    Printf.printf "%d bytes: %s one-way (second send of a warm buffer)\n" bytes
      (Format.asprintf "%a" Time.pp t)
  in
  Cmd.v (Cmd.info "latency" ~doc)
    Term.(const run $ nic_kind $ bytes $ page_bytes $ mc_kb $ unrestricted)

(* ------------------------------------------------------------------ *)
(* collectives                                                         *)
(* ------------------------------------------------------------------ *)

let collectives_cmd =
  let doc = "Collective-operation latency: NIC combining tree vs host-driven." in
  let nodes_arg =
    Arg.(value & opt int 8 & info [ "nodes" ] ~doc:"Number of workstation nodes.")
  in
  let reps_arg = Arg.(value & opt int 8 & info [ "reps" ] ~doc:"Episodes per measurement.") in
  let host_arg =
    Arg.(
      value & flag
      & info [ "host" ]
          ~doc:"Use the host-driven collectives (dissemination/binomial) instead of the \
                NIC combining tree.")
  in
  let fanout_arg =
    Arg.(value & opt int 2 & info [ "fanout" ] ~doc:"Combining-tree arity (NIC tree only).")
  in
  let run nic nodes reps host topology fanout mc_kb no_aih =
    let kind = make_kind nic ~mc_kb ~no_aih in
    let p =
      built install_check
        (Check.catch (fun () ->
             Microbench.collective_latency ~reps ~topology ~fanout ~kind ~nodes ~nic:(not host)
               ()))
    in
    Printf.printf "impl               %s\n" (if host then "host-driven" else "nic-tree");
    Printf.printf "nodes              %d\n" nodes;
    if topology <> Topology.Single then
      Printf.printf "topology           %s\n" (Topology.kind_to_string topology);
    Printf.printf "barrier latency    %.1f us\n" p.Microbench.barrier_us;
    Printf.printf "allreduce latency  %.1f us\n" p.Microbench.allreduce_us;
    Printf.printf "host interrupts    %d\n" p.Microbench.interrupts
  in
  Cmd.v (Cmd.info "collectives" ~doc)
    Term.(
      const run $ nic_kind $ nodes_arg $ reps_arg $ host_arg $ topology_arg $ fanout_arg
      $ mc_kb $ no_aih)

(* ------------------------------------------------------------------ *)
(* aih-verify                                                          *)
(* ------------------------------------------------------------------ *)

let aih_verify_cmd =
  let doc =
    "Run the AIH static verifier over the shipped corpus and the generated collectives \
     firmware; exit non-zero on any unexpected accept or reject."
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print every program, not just mismatches.")
  in
  let run verbose =
    let module Verify = Cni_aih.Aih_verify in
    let module Cir = Cni_mp.Collectives_ir in
    (* the shipped corpus is held to the default link rate's per-cell
       budget, exactly as Nic.install_handler_verified would *)
    let cell_budget = Params.line_rate_budget Params.default in
    let total = ref 0 and mismatches = ref 0 and rejections = ref 0 in
    let expect_ok name p =
      incr total;
      match Verify.verify ~cell_budget p with
      | Ok c ->
          if verbose then
            Printf.printf "accept  %-40s wcet=%d cycles, per-byte=%d mcyc, code=%d bytes\n"
              name c.Verify.wcet_nic_cycles c.Verify.wcet_per_byte_milli
              c.Verify.code_bytes
      | Error rjs ->
          incr mismatches;
          Printf.printf "MISMATCH %-40s expected accept, got: %s\n" name
            (Verify.explain_all rjs)
    in
    List.iter (fun (name, p) -> expect_ok name p) Cni_aih.Aih_corpus.good;
    List.iter
      (fun op ->
        List.iter
          (fun (size, fanout) ->
            List.iter
              (fun rank ->
                let p = Cir.program ~op ~rank ~size ~fanout in
                expect_ok p.Cni_aih.Aih_ir.name p)
              [ 0; 1; size - 1 ])
          [ (2, 2); (8, 2); (16, 4); (256, 8) ])
      [ Cir.Sum; Cir.Max; Cir.Min ];
    List.iter
      (fun size ->
        expect_ok
          (Printf.sprintf "reliable-rx/%d" size)
          (Cni_nic.Reliable_ir.rx_program ~size);
        expect_ok
          (Printf.sprintf "reliable-tx-stamp/%d" size)
          (Cni_nic.Reliable_ir.tx_program ~size))
      [ 2; 8; 256 ];
    List.iter
      (fun (name, expected, p) ->
        incr total;
        match Verify.verify ~cell_budget p with
        | Ok _ ->
            incr mismatches;
            Printf.printf "MISMATCH %-40s accepted, expected %s\n" name expected
        | Error rjs ->
            rejections := !rejections + List.length rjs;
            let names =
              List.map (fun rj -> Verify.reason_name rj.Verify.rj_reason) rjs
            in
            if not (List.mem expected names) then begin
              incr mismatches;
              Printf.printf "MISMATCH %-40s expected %s, got %s\n" name expected
                (String.concat "," names)
            end
            else if verbose then
              Printf.printf "reject  %-40s (%d rejection%s) %s\n" name
                (List.length rjs)
                (if List.length rjs = 1 then "" else "s")
                (Verify.explain_all rjs))
      Cni_aih.Aih_corpus.bad;
    Printf.printf "aih-verify: %d programs, %d rejections, %d mismatches\n" !total
      !rejections !mismatches;
    if !mismatches > 0 then exit 1
  in
  Cmd.v (Cmd.info "aih-verify" ~doc) Term.(const run $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* doctor                                                              *)
(* ------------------------------------------------------------------ *)

(* Preflight: validate a configuration, then build it exactly as [run]
   does and stop before the first event. Each check prints one ok/FAIL
   line; any FAIL exits 1. Whatever the install path would reject — board
   memory, the combining tree's node limit, firmware admission — surfaces
   in the build verdict, so doctor and run accept the same configurations. *)
let doctor_cmd =
  let doc = "Preflight checks: config sanity, then a dry run of the protocol-stack build." in
  let run procs topology page mc_kb cells loss corrupt link_down fault_seed schedule crash
      nic_collectives =
    let params = make_params ~page ~cells in
    let faults = make_faults ~seed:fault_seed ~loss ~corrupt ~link_down ~schedule ~crash in
    let none () = "" in
    let stacks (cluster, _) =
      let board = Cni_cluster.Node.nic (Cni_cluster.Cluster.node cluster 0) in
      Printf.sprintf "%d board(s), each %d B of handler code + %d KB Message Cache of %d KB"
        procs
        (Cni_nic.Nic.handler_code_bytes board)
        mc_kb
        (params.Params.nic_memory_bytes / 1024)
    in
    let checks =
      [
        Check.verdict "machine geometry (powers of two, page >= line, L1 <= L2)" none
          (Params.validate params);
        Check.verdict
          (Printf.sprintf "topology %s fits %d node(s)" (Topology.kind_to_string topology) procs)
          (Check.describe_topology topology ~nodes:procs)
          (Check.topology topology ~nodes:procs);
        Check.verdict "fault model (probabilities, windows, schedule)" none
          (match faults with None -> Ok () | Some cfg -> Check.faults ~nodes:procs cfg);
        ( install_check,
          Result.map stacks
            (Runner.build ~params ?faults ~topology ~barrier_impl:(barrier_impl nic_collectives)
               ~kind:(make_kind Scenario.Cni ~mc_kb ~no_aih:false)
               ~procs ()) );
      ]
    in
    let failures = Check.print stdout checks in
    Printf.printf "doctor: %d check(s) failed\n" failures;
    if failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "doctor" ~doc)
    Term.(
      const run $ procs $ topology_arg $ page_bytes $ mc_kb $ unrestricted $ loss_arg
      $ corrupt_arg $ link_down_arg $ fault_seed_arg $ schedule_arg $ crash_arg
      $ nic_collectives_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Chaos = Cni_experiments.Chaos in
  let doc = "Seeded crash/restart chaos run with recovery metrics (deterministic per seed)." in
  let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Chaos schedule seed.") in
  let crashes_arg = Arg.(value & opt int 2 & info [ "crashes" ] ~doc:"Crash/restart episodes.") in
  let down_arg =
    Arg.(value & opt int 200 & info [ "down-us" ] ~doc:"Time a crashed node stays down.")
  in
  let scrub_arg =
    Arg.(value & flag & info [ "scrub" ] ~doc:"Crashes also wipe board memory.")
  in
  let chaos_app_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("jacobi", `Dsm); ("ring", `Ring) ]) `Dsm
      & info [ "app" ]
          ~doc:
            "$(b,jacobi): closed-loop DSM run, expected to recover and reproduce the \
             fault-free checksum. $(b,ring): open-loop message ring over recv_timeout, \
             expected to degrade (timed-out rounds) but never hang.")
  in
  let run app nic procs seed crashes down_us scrub mc_kb no_aih =
    let kind = make_kind nic ~mc_kb ~no_aih in
    let down = Time.us down_us in
    let m =
      built "chaos schedule"
        (Check.catch (fun () ->
             match app with
             | `Dsm -> Chaos.run_dsm ~seed ~procs ~scrub ~kind ~crashes ~down ()
             | `Ring -> Chaos.run_ring ~seed ~nodes:procs ~scrub ~kind ~crashes ~down ()))
    in
    Printf.printf "outcome            %s\n" m.Chaos.outcome;
    Printf.printf "elapsed            %.1f us\n" m.Chaos.elapsed_us;
    Printf.printf "crashes/restarts   %d/%d\n" m.Chaos.crashes m.Chaos.restarts;
    Printf.printf "retransmits        %d\n" m.Chaos.retransmits;
    Printf.printf "crash drops        %d\n" m.Chaos.crash_drops;
    Printf.printf "recoveries         %d (mean %.1f us restart-to-first-frame)\n"
      m.Chaos.recoveries m.Chaos.mean_recovery_us;
    Printf.printf "rx timeouts        %d\n" m.Chaos.rx_timeouts;
    Printf.printf "checksum           %.17g\n" m.Chaos.checksum;
    if not m.Chaos.completed then exit 2
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ chaos_app_arg $ nic_kind $ procs $ seed_arg $ crashes_arg $ down_arg
      $ scrub_arg $ mc_kb $ no_aih)

(* ------------------------------------------------------------------ *)
(* scenario                                                            *)
(* ------------------------------------------------------------------ *)

(* Named serving scenarios (see docs/SCENARIOS.md). The run subcommand's
   report is entirely simulated metrics — no wall-clock — so two runs of
   the same profile are byte-identical, which CI checks. *)
let scenario_cmd =
  let module Kv = Cni_apps.Kv_serve in
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Built-in profile name (see $(b,scenario list)).")
  in
  let file_arg =
    Arg.(
      value & opt (some file) None
      & info [ "file" ]
          ~doc:"Load the profile from a text file (docs/SCENARIOS.md has the grammar).")
  in
  let fail e =
    Printf.eprintf "cni_sim scenario: %s\n" e;
    exit 1
  in
  let load name file =
    match (name, file) with
    | None, Some f -> (
        let ic = open_in_bin f in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Scenario.of_string s with
        | Ok p -> p
        | Error e -> fail (Printf.sprintf "%s: %s" f e))
    | Some n, None -> (
        match Scenario.find n with
        | Some p -> p
        | None -> fail (Printf.sprintf "unknown profile %S (try: cni_sim scenario list)" n))
    | Some _, Some _ -> fail "give either NAME or --file, not both"
    | None, None -> fail "give a profile NAME or --file FILE"
  in
  let preflight p = Check.print stdout (Scenario.preflight p) in
  let list_cmd =
    let doc = "List the built-in scenario profiles." in
    let run () =
      List.iter
        (fun p -> Printf.printf "%-20s %s\n" p.Scenario.name p.Scenario.summary)
        Scenario.builtins
    in
    Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())
  in
  let describe_cmd =
    let doc = "Print a profile's full text form plus derived figures." in
    let run name file =
      let p = load name file in
      print_string (Scenario.to_string p);
      Printf.printf "# derived: %d nodes, %.0f req/s offered, %d requests in total\n"
        (p.Scenario.clients + p.Scenario.servers)
        (Scenario.offered_rps p)
        (p.Scenario.clients * p.Scenario.requests_per_client)
    in
    Cmd.v (Cmd.info "describe" ~doc) Term.(const run $ name_arg $ file_arg)
  in
  let doctor_cmd =
    let doc = "Preflight a profile without running it (exit 1 on any failed check)." in
    let run name file =
      let p = load name file in
      let failures = preflight p in
      Printf.printf "doctor: %d check(s) failed\n" failures;
      if failures > 0 then exit 1
    in
    Cmd.v (Cmd.info "doctor" ~doc) Term.(const run $ name_arg $ file_arg)
  in
  let run_cmd =
    let doc = "Preflight, then run a profile and report its latency tail." in
    let run name file =
      let p = load name file in
      let failures = preflight p in
      if failures > 0 then fail "preflight failed; not running";
      let r = Scenario.run p in
      Printf.printf "profile            %s\n" p.Scenario.name;
      Printf.printf "requests           %d issued, %d answered (gets %d, puts %d)\n"
        r.Kv.requests r.Kv.responses r.Kv.gets r.Kv.puts;
      Printf.printf "elapsed            %.1f us (%.0f req/s served)\n" r.Kv.elapsed_us
        r.Kv.throughput_rps;
      Printf.printf "latency mean       %.3f us\n" r.Kv.mean_us;
      Printf.printf "latency p50        %.3f us\n" r.Kv.p50_us;
      Printf.printf "latency p99        %.3f us\n" r.Kv.p99_us;
      Printf.printf "latency p999       %.3f us\n" r.Kv.p999_us;
      Printf.printf "latency max        %.3f us\n" r.Kv.max_us;
      Printf.printf "retransmits        %d\n" r.Kv.retransmits;
      Printf.printf "fault drops        %d\n" r.Kv.fault_drops;
      Printf.printf "fabric hop waits   %d\n" r.Kv.hop_waits;
      Printf.printf "host interrupts    %d\n" r.Kv.host_interrupts;
      Printf.printf "host polls         %d (%d wasted)\n" r.Kv.polls r.Kv.wasted_polls
    in
    Cmd.v (Cmd.info "run" ~doc) Term.(const run $ name_arg $ file_arg)
  in
  let doc = "Named serving scenarios: list, describe, preflight and run profiles." in
  Cmd.group (Cmd.info "scenario" ~doc) [ list_cmd; describe_cmd; doctor_cmd; run_cmd ]

(* ------------------------------------------------------------------ *)
(* params                                                              *)
(* ------------------------------------------------------------------ *)

let params_cmd =
  let doc = "Print the simulation parameters (paper Table 1)." in
  let run () = Report.print (Cni_experiments.Figures.table1 ()) in
  Cmd.v (Cmd.info "params" ~doc) Term.(const run $ const ())

let () =
  let doc = "CNI cluster network interface simulator (HPDC'96 reproduction)" in
  let info = Cmd.info "cni_sim" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; sweep_cmd; latency_cmd; collectives_cmd; aih_verify_cmd; doctor_cmd;
            chaos_cmd; scenario_cmd; params_cmd;
          ]))
