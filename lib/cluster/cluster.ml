module Engine = Cni_engine.Engine
module Time = Cni_engine.Time
module Stats = Cni_engine.Stats
module Trace = Cni_engine.Trace
module Params = Cni_machine.Params
module Fabric = Cni_atm.Fabric
module Nic = Cni_nic.Nic

type nic_kind = Nic.kind

type 'a t = {
  eng : Engine.t;
  p : Params.t;
  fabric : 'a Fabric.t;
  nodes : 'a Node.t array;
  kind : nic_kind;
  registry : Stats.Registry.t;
  mutable ran : bool;
}

(* Crash a node: freeze its application fiber, kill the board (scrubbing
   its memory if asked) and sever it from the fabric. The order matters —
   the fiber must be frozen before the board dies so no send slips into the
   dead window at the same instant. *)
let crash_node ~scrub t i =
  let n = t.nodes.(i) in
  Node.freeze n;
  Nic.crash (Node.nic n) ~scrub;
  Fabric.set_node_down t.fabric ~node:i true

(* Restart in the reverse order: board first (parked frames re-sent, board
   memory rebuilt), then the fabric link, then the thawed application fiber. *)
let restart_node t i =
  let n = t.nodes.(i) in
  Nic.restart (Node.nic n);
  Fabric.set_node_down t.fabric ~node:i false;
  Node.unfreeze n

let create ?(params = Params.default) ?faults ?reliability ?(reliability_off = false) ?topology
    ~nic_kind ~nodes () =
  if nodes < 1 then invalid_arg "Cluster.create: need at least one node";
  (match Params.validate params with
  | Ok () -> ()
  | Error errs ->
      invalid_arg ("Cluster.create: invalid machine geometry: " ^ String.concat "; " errs));
  let eng = Engine.create () in
  let registry = Stats.Registry.create () in
  let faulty =
    match faults with Some f when not (Cni_atm.Faults.is_none f) -> Some f | _ -> None
  in
  (match Option.map (Cni_atm.Faults.validate ~nodes) faulty with
  | Some (Error errs) ->
      invalid_arg ("Cluster.create: invalid fault model: " ^ String.concat "; " errs)
  | Some (Ok ()) | None -> ());
  let fabric = Fabric.create ~registry ?faults:faulty ?topology eng params ~nodes in
  (* an injected-fault fabric without reliable delivery would just lose
     protocol messages and deadlock; default the protocol on when faults are
     requested, while still letting callers pass an explicit config —
     [reliability_off] opts out entirely, for workloads that bring their own
     recovery protocol (e.g. Reliable_ir firmware endpoints) *)
  let reliability =
    if reliability_off then None
    else
      match (reliability, faulty) with
      | (Some _ as r), _ -> r
      | None, Some _ -> Some Cni_nic.Reliable.default
      | None, None -> None
  in
  let node_arr =
    Array.init nodes (fun id ->
        Node.create ~registry ?reliability eng params fabric ~id ~nic_kind)
  in
  let t = { eng; p = params; fabric; nodes = node_arr; kind = nic_kind; registry; ran = false } in
  (* drive the node-fault schedule off engine time *)
  Option.iter
    (fun f ->
      List.iter
        (fun e ->
          let open Cni_atm.Faults in
          Engine.at eng e.e_at (fun () ->
              match e.e_fault with
              | Crash { scrub } -> crash_node ~scrub t e.e_node
              | Restart -> restart_node t e.e_node))
        (Cni_atm.Faults.sorted_schedule f))
    faulty;
  t

let engine t = t.eng
let params t = t.p
let fabric t = t.fabric
let size t = Array.length t.nodes
let node t i = t.nodes.(i)
let nodes t = t.nodes
let is_cni t = match t.kind with `Cni _ -> true | `Osiris | `Standard -> false

let sum t f = Array.fold_left (fun acc n -> acc + f n) 0 t.nodes

let retransmits t =
  sum t (fun n ->
      match Nic.rel_stats (Node.nic n) with Some rs -> rs.Nic.retransmits | None -> 0)

exception Deadlock of { unfinished : int list; crashed : int list }

let () =
  Printexc.register_printer (function
    | Deadlock { unfinished; crashed } ->
        let list l = String.concat ", " (List.map string_of_int l) in
        Some
          (Printf.sprintf
             "Cluster.Deadlock: application fibers of node(s) %s never finished%s"
             (list unfinished)
             (if crashed = [] then ""
              else Printf.sprintf " (node(s) %s crashed without restarting)" (list crashed)))
    | _ -> None)

let run_app ?watchdog t f =
  Array.iter
    (fun n ->
      Engine.spawn t.eng ~name:(Printf.sprintf "app-%d" (Node.id n)) (fun () ->
          f n;
          Node.finish n;
          if Trace.enabled_cat Trace.App then
            Trace.emit ~t_ps:(Time.to_ps (Engine.now t.eng)) ~node:(Node.id n)
              Trace.App ~label:"finish" ~payload:0))
    t.nodes;
  (match watchdog with
  | None -> Engine.run t.eng
  | Some limit -> Engine.run_watched t.eng ~limit);
  t.ran <- true;
  let stuck =
    Array.fold_left
      (fun acc n -> if Node.finished n then acc else Node.id n :: acc)
      [] t.nodes
  in
  if stuck <> [] then begin
    let crashed, hung =
      List.partition (fun i -> Fabric.node_down t.fabric ~node:i) (List.rev stuck)
    in
    (* nodes that crashed and never restarted are expected casualties: the
       run completes without them. Anything else still unfinished with the
       event queue drained is a real deadlock. *)
    if hung <> [] then raise (Deadlock { unfinished = hung; crashed })
  end

let elapsed t =
  Array.fold_left (fun acc n -> Time.max acc (Node.report n).Node.finish_time) Time.zero t.nodes

(* Average over nodes whose Message Cache actually saw lookups: a node that
   never transmitted bulk data has no meaningful ratio, and counting it
   (either as 0 or as 100) would skew the cluster-wide figure. *)
let network_cache_hit_ratio t =
  let sum = ref 0. and active = ref 0 in
  Array.iter
    (fun n ->
      match Nic.network_cache_hit_ratio_opt (Node.nic n) with
      | Some r ->
          sum := !sum +. r;
          incr active
      | None -> ())
    t.nodes;
  if !active = 0 then 0. else !sum /. float_of_int !active

type overheads = {
  computation : Time.t;
  synch_overhead : Time.t;
  synch_delay : Time.t;
  total : Time.t;
}

let overheads t =
  let acc =
    Array.fold_left
      (fun (c, o, d) n ->
        let r = Node.report n in
        (Time.(c + r.Node.computation), Time.(o + r.Node.synch_overhead), Time.(d + r.Node.synch_delay)))
      (Time.zero, Time.zero, Time.zero) t.nodes
  in
  let c, o, d = acc in
  { computation = c; synch_overhead = o; synch_delay = d; total = elapsed t }

let metrics t = t.registry

(* Refresh the time-accounting gauges (counters set, not incremented — the
   snapshot is idempotent) before freezing the registry. *)
let metrics_snapshot t =
  Array.iter
    (fun n ->
      let id = Node.id n in
      let r = Node.report n in
      let gauge name v =
        Stats.Counter.set
          (Stats.Registry.counter t.registry ~node:id ~subsystem:"node" name)
          (Time.to_ps v)
      in
      gauge "computation_ps" r.Node.computation;
      gauge "synch_overhead_ps" r.Node.synch_overhead;
      gauge "synch_delay_ps" r.Node.synch_delay;
      gauge "service_ps" r.Node.service_time;
      gauge "finish_ps" r.Node.finish_time)
    t.nodes;
  Stats.Counter.set
    (Stats.Registry.counter t.registry ~subsystem:"cluster" "elapsed_ps")
    (Time.to_ps (elapsed t));
  Stats.Registry.snapshot t.registry
