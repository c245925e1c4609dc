(* The shared preflight check list: labelled verdicts, the rules more than
   one preflight states, the build-step error, the verdict of a run that did
   not complete, and the ok/FAIL printer. *)

module Engine = Cni_engine.Engine
module Topology = Cni_atm.Topology
module Faults = Cni_atm.Faults
module Reliable = Cni_nic.Reliable
module Cluster = Cni_cluster.Cluster

type t = string * (string, string) result

let verdict label detail = function
  | Ok () -> (label, Ok (detail ()))
  | Error errs -> (label, Error (String.concat "; " errs))

let topology kind ~nodes = Result.map_error (fun e -> [ e ]) (Topology.validate kind ~nodes)
let describe_topology kind ~nodes () = Topology.describe (Topology.of_kind kind ~nodes)

(* nodes whose crash and restart counts differ *)
let unpaired_crashes sched =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let c, r = Option.value (Hashtbl.find_opt tbl e.Faults.e_node) ~default:(0, 0) in
      match e.Faults.e_fault with
      | Faults.Crash _ -> Hashtbl.replace tbl e.Faults.e_node (c + 1, r)
      | Faults.Restart -> Hashtbl.replace tbl e.Faults.e_node (c, r + 1))
    sched;
  Hashtbl.fold (fun node (c, r) acc -> if c <> r then node :: acc else acc) tbl []
  |> List.sort compare

let faults ~nodes cfg =
  let errs = match Faults.validate ~nodes cfg with Ok () -> [] | Error es -> es in
  let errs =
    match unpaired_crashes cfg.Faults.schedule with
    | [] -> errs
    | ns ->
        errs
        @ [
            Printf.sprintf
              "crash without matching restart on node%s %s (the run could never drain)"
              (if List.length ns > 1 then "s" else "")
              (String.concat ", " (List.map string_of_int ns));
          ]
  in
  if errs = [] then Ok () else Error errs

let catch build =
  match build () with
  | v -> Ok v
  | exception (Invalid_argument msg | Failure msg) -> Error msg

let outcome_of_exn = function
  | Engine.Quiescence_timeout _ -> "watchdog"
  | Cluster.Deadlock _ -> "deadlock"
  | Engine.Fiber_failure (_, Reliable.Peer_dead _) -> "peer-dead"
  | Engine.Fiber_failure (_, Reliable.Delivery_failed _) -> "delivery-failed"
  | e -> Printexc.to_string e

let run_failure e =
  let cause = match e with Engine.Fiber_failure (_, cause) -> cause | e -> e in
  ("run completes", Error (outcome_of_exn e ^ ": " ^ Printexc.to_string cause))

let print oc checks =
  List.fold_left
    (fun failures (label, verdict) ->
      match verdict with
      | Ok "" ->
          Printf.fprintf oc "ok    %s\n" label;
          failures
      | Ok detail ->
          Printf.fprintf oc "ok    %s: %s\n" label detail;
          failures
      | Error problem ->
          Printf.fprintf oc "FAIL  %s: %s\n" label problem;
          failures + 1)
    0 checks
