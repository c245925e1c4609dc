(* Scenario profiles: the (topology × workload × faults × rx policy × node
   count) product flattened into one record with a line-oriented text form.
   Parsing is strict about shape (first bad line wins, with its number);
   semantics are checked by [validate], which collects every problem. *)

module Time = Cni_engine.Time
module Params = Cni_machine.Params
module Topology = Cni_atm.Topology
module Faults = Cni_atm.Faults
module Nic = Cni_nic.Nic
module Kv_serve = Cni_apps.Kv_serve

type nic = Cni | Osiris | Standard
type rx = Interrupt | Poll | Hybrid | Adaptive

type profile = {
  name : string;
  summary : string;
  clients : int;
  servers : int;
  requests_per_client : int;
  arrival : Arrival.kind;
  value_bytes : int;
  put_pct : int;
  service_cycles : int;
  seed : int;
  nic : nic;
  aih : bool;
  rx_policy : rx;
  rx_batch : int;
  topology : Topology.kind;
  faults : Faults.config;
}

let default =
  {
    name = "";
    summary = "";
    clients = 12;
    servers = 4;
    requests_per_client = 40;
    arrival = Arrival.Poisson { rate_per_s = 20_000. };
    value_bytes = 256;
    put_pct = 20;
    service_cycles = 400;
    seed = 42;
    nic = Cni;
    aih = true;
    rx_policy = Hybrid;
    rx_batch = 1;
    topology = Topology.Single;
    faults = Faults.none;
  }

let nic_names = [ ("cni", Cni); ("osiris", Osiris); ("standard", Standard) ]

let rx_names =
  [ ("interrupt", Interrupt); ("poll", Poll); ("hybrid", Hybrid); ("adaptive", Adaptive) ]

let name_of names v = fst (List.find (fun (_, v') -> v' = v) names)

let to_rx_policy = function
  | Interrupt -> Nic.Rx_interrupt
  | Poll -> Nic.Rx_poll
  | Hybrid -> Nic.Rx_hybrid
  | Adaptive -> Nic.Rx_adaptive Nic.default_rx_adaptive

let offered_rps p = float_of_int p.clients *. Arrival.mean_rate_per_s p.arrival

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let name_ok n =
  n <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') n
  && n.[0] <> '-'

(* The workload half of a profile, with each client's seeded arrival
   stream; [validate] checks its fields and [run] drives it. *)
let kv_config p =
  {
    Kv_serve.clients = p.clients;
    servers = p.servers;
    requests_per_client = p.requests_per_client;
    arrival =
      (fun client ->
        let g = Arrival.create ~seed:(p.seed + (104729 * (client + 1))) p.arrival in
        fun () -> Arrival.next_gap g);
    value_bytes = p.value_bytes;
    put_pct = p.put_pct;
    seed = p.seed;
    service_cycles = p.service_cycles;
  }

let fields p =
  let name =
    if name_ok p.name then []
    else
      [
        Printf.sprintf
          "name must be non-empty lowercase-kebab ([a-z0-9-], not starting with '-'): %S"
          p.name;
      ]
  and workload = match Kv_serve.validate (kv_config p) with Ok () -> [] | Error es -> es
  and rx_batch =
    if p.rx_batch < 1 then [ Printf.sprintf "rx-batch must be >= 1 (got %d)" p.rx_batch ]
    else []
  in
  match name @ workload @ rx_batch with [] -> Ok () | errs -> Error errs

let fault_summary f =
  if Faults.is_none f then "fault-free"
  else
    Printf.sprintf "loss %g, corrupt %g, drop %g, %d windows, %d events" f.Faults.cell_loss
      f.Faults.cell_corrupt f.Faults.frame_drop (List.length f.Faults.link_down)
      (List.length f.Faults.schedule)

(* The checks [validate] and [preflight] share, in report order: a label,
   the check's errors, and the detail [preflight] prints when it passes. *)
let checks p =
  let nodes = p.clients + p.servers in
  [
    ( "profile fields",
      fields p,
      fun () ->
        Printf.sprintf "%d clients x %d requests against %d servers" p.clients
          p.requests_per_client p.servers );
    ( "arrival process",
      Arrival.validate_kind p.arrival,
      fun () ->
        Printf.sprintf "%s (%.0f req/s offered)" (Arrival.kind_to_string p.arrival)
          (offered_rps p) );
    ("topology", Check.topology p.topology ~nodes, Check.describe_topology p.topology ~nodes);
    ("fault model", Check.faults ~nodes p.faults, fun () -> fault_summary p.faults);
  ]

let validate p =
  let errors (_, r, _) = match r with Ok () -> [] | Error es -> es in
  match List.concat_map errors (checks p) with [] -> Ok () | errs -> Error errs

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let to_string p =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "name %s" p.name;
  if p.summary <> "" then line "summary %s" p.summary;
  line "clients %d" p.clients;
  line "servers %d" p.servers;
  line "requests %d" p.requests_per_client;
  line "arrival %s" (Arrival.kind_to_string p.arrival);
  line "value-bytes %d" p.value_bytes;
  line "put-pct %d" p.put_pct;
  line "service-cycles %d" p.service_cycles;
  line "seed %d" p.seed;
  line "nic %s" (name_of nic_names p.nic);
  line "aih %s" (if p.aih then "on" else "off");
  line "rx-policy %s" (name_of rx_names p.rx_policy);
  line "rx-batch %d" p.rx_batch;
  line "topology %s" (Topology.kind_to_string p.topology);
  (* the fault model's own directives; its [seed] is spelled [fault-seed]
     here, [seed] being the profile's master seed *)
  List.iter
    (fun l ->
      if l <> "" then line "%s" (if String.starts_with ~prefix:"seed " l then "fault-" ^ l else l))
    (String.split_on_char '\n' (Faults.config_to_string p.faults));
  Buffer.contents b

let of_string text =
  let p = ref default in
  let got_name = ref false in
  let err = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let fail fmt =
        Printf.ksprintf
          (fun m -> if !err = None then err := Some (Printf.sprintf "line %d: %s" ln m))
          fmt
      in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let line = String.trim line in
      if line <> "" && !err = None then begin
        let key, rest =
          match String.index_opt line ' ' with
          | Some j ->
              ( String.sub line 0 j,
                String.trim (String.sub line j (String.length line - j)) )
          | None -> (line, "")
        in
        let intv what k =
          match int_of_string_opt rest with
          | Some v -> k v
          | None -> fail "%s: expected an integer, got %S" what rest
        in
        let named what names k =
          match List.assoc_opt rest names with
          | Some v -> k v
          | None ->
              fail "%s: expected %s, got %S" what (String.concat " | " (List.map fst names)) rest
        in
        let set f = p := f !p in
        match key with
        | "name" ->
            if rest = "" then fail "name needs a value"
            else begin
              got_name := true;
              set (fun p -> { p with name = rest })
            end
        | "summary" -> set (fun p -> { p with summary = rest })
        | "clients" -> intv "clients" (fun v -> set (fun p -> { p with clients = v }))
        | "servers" -> intv "servers" (fun v -> set (fun p -> { p with servers = v }))
        | "requests" ->
            intv "requests" (fun v -> set (fun p -> { p with requests_per_client = v }))
        | "arrival" -> (
            match Arrival.kind_of_string rest with
            | Ok k -> set (fun p -> { p with arrival = k })
            | Error e -> fail "arrival: %s" e)
        | "value-bytes" ->
            intv "value-bytes" (fun v -> set (fun p -> { p with value_bytes = v }))
        | "put-pct" -> intv "put-pct" (fun v -> set (fun p -> { p with put_pct = v }))
        | "service-cycles" ->
            intv "service-cycles" (fun v -> set (fun p -> { p with service_cycles = v }))
        | "seed" -> intv "seed" (fun v -> set (fun p -> { p with seed = v }))
        | "nic" -> named "nic" nic_names (fun v -> set (fun p -> { p with nic = v }))
        | "aih" ->
            named "aih" [ ("on", true); ("off", false) ] (fun aih -> set (fun p -> { p with aih }))
        | "rx-policy" ->
            named "rx-policy" rx_names (fun v -> set (fun p -> { p with rx_policy = v }))
        | "rx-batch" -> intv "rx-batch" (fun v -> set (fun p -> { p with rx_batch = v }))
        | "topology" -> (
            match Topology.kind_of_string rest with
            | Ok k -> set (fun p -> { p with topology = k })
            | Error e -> fail "topology: %s" e)
        | "fault-seed" | "loss" | "corrupt" | "drop" | "down" | "crash" | "restart" -> (
            let word = if key = "fault-seed" then "seed" else key in
            let args = List.filter (( <> ) "") (String.split_on_char ' ' rest) in
            match Faults.directive !p.faults word args with
            | Ok faults -> set (fun p -> { p with faults })
            | Error e -> fail "%s: %s" key e)
        | k -> fail "unknown key %S" k
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None -> if not !got_name then Error "profile has no name line" else Ok !p

(* ------------------------------------------------------------------ *)
(* Preflight                                                           *)
(* ------------------------------------------------------------------ *)

let utilisation p =
  if p.service_cycles = 0 then 0.
  else
    offered_rps p *. float_of_int p.service_cycles
    /. (float_of_int p.servers *. float_of_int Params.default.Params.cpu_hz)

let preflight p =
  let capacity =
    let u = utilisation p in
    if u >= 1. then
      Error
        (Printf.sprintf
           "offered load is %.0f%% of aggregate service capacity — the queue (and the \
            tail) grows without bound"
           (u *. 100.))
    else Ok (Printf.sprintf "service utilisation %.1f%%" (u *. 100.))
  in
  List.map (fun (label, r, detail) -> Check.verdict label detail r) (checks p)
  @ [ ("service capacity", capacity) ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let to_nic_kind p =
  match p.nic with
  | Cni -> Runner.cni ~aih:p.aih ~rx_policy:(to_rx_policy p.rx_policy) ~rx_batch:p.rx_batch ()
  | Osiris -> Runner.osiris
  | Standard -> Runner.standard

let run ?watchdog p =
  (match validate p with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Scenario.run: " ^ String.concat "; " errs));
  Kv_serve.run ?watchdog ~faults:p.faults ~topology:p.topology ~nic_kind:(to_nic_kind p)
    (kv_config p)

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

let builtins =
  [
    {
      default with
      name = "baseline-16";
      summary = "single-switch CNI hybrid at moderate Poisson load: the reference tail";
    };
    {
      default with
      name = "baseline-64";
      summary = "the reference workload scaled to 64 nodes on one switch";
      clients = 48;
      servers = 16;
    };
    {
      default with
      name = "hot-poll-16";
      summary = "high offered load through the host receive path, pure polling";
      arrival = Arrival.Poisson { rate_per_s = 100_000. };
      requests_per_client = 60;
      aih = false;
      rx_policy = Poll;
    };
    {
      default with
      name = "hot-interrupt-16";
      summary = "high offered load through the host receive path, an interrupt per packet";
      arrival = Arrival.Poisson { rate_per_s = 100_000. };
      requests_per_client = 60;
      aih = false;
      rx_policy = Interrupt;
    };
    {
      default with
      name = "burst-faulty-torus";
      summary = "bursty clients on a lossy 3D torus with a server crash mid-run";
      arrival =
        Arrival.Bursty
          {
            on_rate_per_s = 100_000.;
            off_rate_per_s = 0.;
            mean_on_us = 200.;
            mean_off_us = 600.;
          };
      topology = Topology.Torus { dims = None };
      faults =
        {
          Faults.none with
          Faults.seed = 7;
          cell_loss = 1e-4;
          schedule =
            [
              { Faults.e_at = Time.us 400; e_node = 1; e_fault = Faults.Crash { scrub = false } };
              { Faults.e_at = Time.us 700; e_node = 1; e_fault = Faults.Restart };
            ];
        };
    };
    {
      default with
      name = "standard-nic-16";
      summary = "the conventional interface under the reference load: every packet interrupts";
      nic = Standard;
    };
  ]

let find name = List.find_opt (fun p -> p.name = name) builtins
