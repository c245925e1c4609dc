module Time = Cni_engine.Time

type cache_policy = Write_back | Write_through

type t = {
  cpu_hz : int;
  l1_access_cycles : int;
  l1_bytes : int;
  l2_access_cycles : int;
  l2_bytes : int;
  line_bytes : int;
  cache_policy : cache_policy;
  memory_latency_cycles : int;
  tlb_entries : int;
  tlb_miss_cycles : int;
  bus_hz : int;
  bus_acquire_cycles : int;
  bus_cycles_per_word : int;
  word_bytes : int;
  switch_latency : Time.t;
  link_latency : Time.t;
  link_bandwidth_bps : int;
  cell_payload_bytes : int;
  cell_header_bytes : int;
  switch_ports : int;
  nic_hz : int;
  message_cache_bytes : int;
  nic_memory_bytes : int;
  interrupt_latency : Time.t;
  kernel_send_cycles : int;
  kernel_recv_cycles : int;
  adc_enqueue_cycles : int;
  poll_check_cycles : int;
  pathfinder_cell_ns : int;
  sar_cell_nic_cycles : int;
  handler_dispatch_nic_cycles : int;
  nic_hpus : int;
  page_bytes : int;
}

let default =
  {
    cpu_hz = 166_000_000;
    l1_access_cycles = 1;
    l1_bytes = 32 * 1024;
    l2_access_cycles = 10;
    l2_bytes = 1024 * 1024;
    line_bytes = 32;
    cache_policy = Write_back;
    memory_latency_cycles = 20;
    tlb_entries = 64;
    tlb_miss_cycles = 30;
    bus_hz = 25_000_000;
    bus_acquire_cycles = 4;
    bus_cycles_per_word = 2;
    word_bytes = 8;
    switch_latency = Time.ns 500;
    link_latency = Time.ns 150;
    link_bandwidth_bps = 622_000_000;
    cell_payload_bytes = 48;
    cell_header_bytes = 5;
    switch_ports = 32;
    nic_hz = 33_000_000;
    message_cache_bytes = 32 * 1024;
    nic_memory_bytes = 1024 * 1024;
    interrupt_latency = Time.us 40;
    (* Software path costs are not in Table 1; these are mid-90s figures in
       line with the OSIRIS/ADC literature the paper builds on: a kernel
       send/receive costs a few hundred instructions plus protection checks,
       an ADC operation is a handful of loads/stores. *)
    kernel_send_cycles = 900;
    kernel_recv_cycles = 900;
    adc_enqueue_cycles = 30;
    poll_check_cycles = 10;
    pathfinder_cell_ns = 300;
    sar_cell_nic_cycles = 16;
    handler_dispatch_nic_cycles = 20;
    nic_hpus = 8;
    page_bytes = 2048;
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let validate p =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  let pow2 name n = if not (is_pow2 n) then fail "%s = %d is not a power of two" name n in
  (* bit 0 of a line address carries the cache's dirty flag *)
  if p.line_bytes < 2 || not (is_pow2 p.line_bytes) then
    fail "line_bytes = %d is not a power of two >= 2" p.line_bytes;
  pow2 "l1_bytes" p.l1_bytes;
  pow2 "l2_bytes" p.l2_bytes;
  pow2 "page_bytes" p.page_bytes;
  pow2 "tlb_entries" p.tlb_entries;
  if p.l1_bytes < p.line_bytes then
    fail "l1_bytes = %d is smaller than one %d-byte line" p.l1_bytes p.line_bytes;
  if p.page_bytes < p.line_bytes then
    fail "page_bytes = %d is smaller than one %d-byte line" p.page_bytes p.line_bytes;
  if p.l1_bytes > p.l2_bytes then
    fail "l1_bytes = %d exceeds l2_bytes = %d" p.l1_bytes p.l2_bytes;
  match List.rev !errors with [] -> Ok () | errs -> Error errs

let cpu_cycles p n = Time.cycles ~hz:p.cpu_hz n
let bus_cycles p n = Time.cycles ~hz:p.bus_hz n
let nic_cycles p n = Time.cycles ~hz:p.nic_hz n

let bus_transfer p ~bytes =
  let words = (bytes + p.word_bytes - 1) / p.word_bytes in
  bus_cycles p (p.bus_acquire_cycles + (p.bus_cycles_per_word * words))

let wire_time p ~bytes =
  (* bytes * 8 bits at link_bandwidth bits/s, in picoseconds *)
  let bits = bytes * 8 in
  Time.ps (int_of_float (float_of_int bits *. 1e12 /. float_of_int p.link_bandwidth_bps))

let cells_for p ~bytes =
  if bytes <= 0 then 1 else (bytes + p.cell_payload_bytes - 1) / p.cell_payload_bytes

let unrestricted_cells p = p.cell_payload_bytes >= 1_000_000

let cell_slot_nic_cycles ?link_bps p =
  let bps = match link_bps with Some b -> b | None -> p.link_bandwidth_bps in
  let cell_bits = (p.cell_payload_bytes + p.cell_header_bytes) * 8 in
  (* NIC cycles that elapse while one cell serialises on the wire: the time a
     streaming handler has before the next cell arrives at line rate. *)
  max 1 (cell_bits * (p.nic_hz / 1_000) / (bps / 1_000))

let line_rate_budget ?link_bps p = p.nic_hpus * cell_slot_nic_cycles ?link_bps p

let pp fmt p =
  let f name value = Format.fprintf fmt "  %-28s %s@." name value in
  Format.fprintf fmt "Simulation parameters (Table 1):@.";
  f "CPU Frequency" (Printf.sprintf "%d MHz" (p.cpu_hz / 1_000_000));
  f "Primary Cache Access Time" (Printf.sprintf "%d cycle(s)" p.l1_access_cycles);
  f "Primary Cache Size" (Printf.sprintf "%dK unified" (p.l1_bytes / 1024));
  f "Secondary Cache Access Time" (Printf.sprintf "%d cycles" p.l2_access_cycles);
  f "Secondary Cache Size" (Printf.sprintf "%d MB unified" (p.l2_bytes / 1024 / 1024));
  f "Cache Organization" "Direct-mapped";
  f "Cache Policy"
    (match p.cache_policy with Write_back -> "Write-back" | Write_through -> "Write-through");
  f "Memory Latency" (Printf.sprintf "%d cycles" p.memory_latency_cycles);
  f "Bus Acquisition Time" (Printf.sprintf "%d cycles" p.bus_acquire_cycles);
  f "Bus Transfer Rate" (Printf.sprintf "%d cycles per word" p.bus_cycles_per_word);
  f "Bus Frequency" (Printf.sprintf "%d MHz" (p.bus_hz / 1_000_000));
  f "Switch Latency" (Format.asprintf "%a" Time.pp p.switch_latency);
  f "Network Processor Frequency" (Printf.sprintf "%d MHz" (p.nic_hz / 1_000_000));
  f "Network Latency" (Format.asprintf "%a" Time.pp p.link_latency);
  f "Interrupt Latency" (Format.asprintf "%a" Time.pp p.interrupt_latency);
  f "Message Cache Size" (Printf.sprintf "%d KB" (p.message_cache_bytes / 1024));
  f "Link Bandwidth" (Printf.sprintf "%d Mbps (STS-12)" (p.link_bandwidth_bps / 1_000_000));
  f "ATM Cell Payload"
    (if unrestricted_cells p then "unrestricted (Table 5 variant)"
     else Printf.sprintf "%d bytes" p.cell_payload_bytes);
  f "Handler Processing Units" (Printf.sprintf "%d (streaming AIH)" p.nic_hpus);
  f "Shared Page Size" (Printf.sprintf "%d bytes" p.page_bytes)
