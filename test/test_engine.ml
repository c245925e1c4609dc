(* Tests for the simulation substrate: time, heap, RNG, statistics, growable
   arrays, the event engine, fibers and synchronisation primitives. *)

module Time = Cni_engine.Time
module Heap = Cni_engine.Heap
module Calendar = Cni_engine.Calendar
module Rng = Cni_engine.Rng
module Stats = Cni_engine.Stats
module Trace = Cni_engine.Trace
module Vec = Cni_engine.Vec
module Engine = Cni_engine.Engine
module Sync = Cni_engine.Sync

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  checki "1 us = 1000 ns" (Time.to_ps (Time.us 1)) (Time.to_ps (Time.ns 1000));
  checki "1 ms" 1_000_000_000 (Time.to_ps (Time.ms 1));
  checki "1 s" 1_000_000_000_000 (Time.to_ps (Time.s 1));
  check (Alcotest.float 1e-9) "to_us of 1500ns" 1.5 (Time.to_us_float (Time.ns 1500))

let test_time_arith () =
  let open Time in
  checki "add" 300 (to_ps (ps 100 + ps 200));
  checki "sub" 50 (to_ps (ps 150 - ps 100));
  checki "scale" 500 (to_ps (ps 100 * 5));
  checki "max" 200 (to_ps (Time.max (ps 100) (ps 200)));
  checki "min" 100 (to_ps (Time.min (ps 100) (ps 200)))

let test_time_cycles () =
  (* 166 MHz -> 6024 ps per cycle (rounded) *)
  checki "cpu cycle" 6024 (Time.to_ps (Time.cycle_ps ~hz:166_000_000));
  (* 25 MHz -> exactly 40 ns *)
  checki "bus cycle" 40_000 (Time.to_ps (Time.cycle_ps ~hz:25_000_000));
  checki "n cycles" (10 * 40_000) (Time.to_ps (Time.cycles ~hz:25_000_000 10))

let test_time_pp () =
  checks "ns formatting" "500.0ns" (Format.asprintf "%a" Time.pp (Time.ns 500));
  checks "us formatting" "40.000us" (Format.asprintf "%a" Time.pp (Time.us 40));
  checks "ps formatting" "77ps" (Format.asprintf "%a" Time.pp (Time.ps 77))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.add h ~key:k ~seq:i k) [ 5; 1; 4; 1; 3 ];
  let popped =
    List.init 5 (fun _ ->
        let k, _, _ = Heap.pop_min h in
        k)
  in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 1; 3; 4; 5 ] popped;
  checkb "empty after" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.add h ~key:7 ~seq:i i
  done;
  let popped =
    List.init 10 (fun _ ->
        let _, _, v = Heap.pop_min h in
        v)
  in
  check (Alcotest.list Alcotest.int) "FIFO among equal keys" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    popped

let test_heap_empty_raises () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop_min h));
  Alcotest.check_raises "min_key empty" Not_found (fun () -> ignore (Heap.min_key h))

let test_heap_min_key () =
  let h = Heap.create () in
  Heap.add h ~key:9 ~seq:0 ();
  Heap.add h ~key:2 ~seq:1 ();
  checki "min key" 2 (Heap.min_key h);
  checki "length" 2 (Heap.length h);
  Heap.clear h;
  checki "cleared" 0 (Heap.length h)

(* popped/cleared slots must not pin their payloads: the heap overwrites
   vacated slots with a sentinel, so the GC can reclaim event closures *)
let[@inline never] heap_plant_payload h w =
  let payload = ref 424242 in
  Weak.set w 0 (Some payload);
  Heap.add h ~key:1 ~seq:0 payload

let test_heap_releases_on_pop () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  heap_plant_payload h w;
  ignore (Heap.pop_min h);
  Gc.full_major ();
  checkb "payload reclaimed after pop_min" true (Weak.get w 0 = None)

let test_heap_releases_on_clear () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  heap_plant_payload h w;
  Heap.clear h;
  Gc.full_major ();
  checkb "payload reclaimed after clear" true (Weak.get w 0 = None)

let test_heap_releases_on_pop_min_value () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  heap_plant_payload h w;
  ignore (Heap.pop_min_value h);
  Gc.full_major ();
  checkb "payload reclaimed after pop_min_value" true (Weak.get w 0 = None)

let heap_sorts =
  QCheck.Test.make ~name:"heap pops any multiset in order" ~count:300
    QCheck.(list (int_bound 1000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.add h ~key:k ~seq:i k) keys;
      let out =
        List.init (List.length keys) (fun _ ->
            let k, _, _ = Heap.pop_min h in
            k)
      in
      out = List.sort compare keys)

(* model test: arbitrary add/pop_min/clear interleavings against a
   sorted-list reference; keys are drawn from a small range so equal-key
   FIFO tie-breaks are exercised constantly *)
let heap_model =
  let open QCheck in
  let op_gen =
    Gen.frequency
      [ (6, Gen.map (fun k -> `Add k) (Gen.int_bound 40)); (3, Gen.return `Pop); (1, Gen.return `Clear) ]
  in
  let print_ops ops =
    String.concat ";"
      (List.map (function `Add k -> Printf.sprintf "Add %d" k | `Pop -> "Pop" | `Clear -> "Clear") ops)
  in
  Test.make ~name:"heap model: add/pop_min/clear vs sorted-list reference" ~count:500
    (make ~print:print_ops (Gen.list_size (Gen.int_bound 200) op_gen))
    (fun ops ->
      let h = Heap.create () in
      (* reference: unsorted (key, seq, value) triples; the expected pop is
         the lexicographic minimum, which encodes FIFO among equal keys *)
      let reference = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Add k ->
              Heap.add h ~key:k ~seq:!seq !seq;
              reference := (k, !seq, !seq) :: !reference;
              incr seq;
              Heap.length h = List.length !reference
              && Heap.min_key h = (let mk, _, _ = List.hd (List.sort compare !reference) in mk)
          | `Pop -> (
              match Heap.pop_min h with
              | exception Not_found -> !reference = []
              | k, s, v -> (
                  match List.sort compare !reference with
                  | [] -> false
                  | m :: _ ->
                      reference := List.filter (fun e -> e <> m) !reference;
                      m = (k, s, v)))
          | `Clear ->
              Heap.clear h;
              reference := [];
              Heap.is_empty h)
        ops)

(* the engine hot path's allocation contract: once the backing arrays have
   grown, add + pop_min_value touch only unboxed slots and allocate nothing *)
let test_heap_hot_path_no_alloc () =
  let h = Heap.create () in
  for i = 0 to 1023 do
    Heap.add h ~key:(i * 31 mod 257) ~seq:i i
  done;
  while not (Heap.is_empty h) do
    ignore (Heap.pop_min_value h)
  done;
  let before = Gc.minor_words () in
  for i = 0 to 1023 do
    Heap.add h ~key:(i * 31 mod 257) ~seq:i i
  done;
  while not (Heap.is_empty h) do
    ignore (Heap.pop_min_value h)
  done;
  let words = Gc.minor_words () -. before in
  (* a per-element allocation would cost >= 4096 words here; the small
     epsilon absorbs the Gc.minor_words float boxes themselves *)
  if words > 256. then Alcotest.failf "steady-state add/pop allocated %.0f minor words" words

(* the calendar queue's allocation contract, as the heap's: a warm queue
   adds and pops without allocating, whether a key lands in the cursor's
   bucket (sorted, then past the dense limit), in a later one, past the
   window, or in a bucket dense enough to be popped from the heap. Each
   cycle starts past the last, its first pop moving the cursor there as an
   engine's clock moves on. *)
let test_calendar_hot_path_no_alloc () =
  let q = Calendar.create () in
  let cycle c =
    let base = c lsl 32 in
    Calendar.add q ~key:base ~seq:0 0;
    ignore (Calendar.pop_min_value q);
    for i = 1 to 2047 do
      let key =
        if i land 7 = 0 then base + (1 lsl 29) + (i * 4099) (* past the window *)
        else if i land 7 = 1 then base + (1 lsl 25) + (i land 255) (* one dense bucket *)
        else if i land 15 = 2 then base + 1 + (i * 7 land 1023) (* the cursor's bucket *)
        else base + ((i * 31 mod 257) lsl 16)
      in
      Calendar.add q ~key ~seq:i i
    done;
    let last = ref (-1) in
    while Calendar.length q > 0 do
      let key = Calendar.min_key q in
      if key < !last then Alcotest.failf "key %d popped after %d" key !last;
      last := key;
      ignore (Calendar.pop_min_value q)
    done
  in
  cycle 1;
  let before = Gc.minor_words () in
  cycle 2;
  let words = Gc.minor_words () -. before in
  if words > 256. then Alcotest.failf "steady-state add/pop allocated %.0f minor words" words

(* The stage-event contract: a warm calendar and engine add, pop and
   dispatch (stage, slot) events without allocating, whether they go on
   the lane, into a bucket, past the window or into a dense bucket; and
   each code comes back with its seq, in (key, seq) order. *)
let test_stage_events_no_alloc () =
  let q = Calendar.create () in
  let calendar_cycle c =
    let base = c lsl 32 in
    for i = 0 to 2047 do
      let key =
        if i land 7 = 0 then base + (1 lsl 29) + (i * 4099) (* past the window *)
        else if i land 7 = 1 then base + (1 lsl 25) + (i land 255) (* one dense bucket *)
        else base + ((i * 31 mod 257) lsl 16)
      in
      Calendar.add q ~key ~seq:i i
    done;
    let last_key = ref (-1) and last_seq = ref (-1) in
    while Calendar.length q > 0 do
      let key = Calendar.min_key q in
      let code = Calendar.pop_min_value q in
      let seq = Calendar.last_seq q in
      if code <> seq then Alcotest.fail "code and seq parted";
      if key < !last_key || (key = !last_key && seq < !last_seq) then
        Alcotest.failf "(%d, %d) popped late" key seq;
      last_key := key;
      last_seq := seq
    done
  in
  (* 64 slots, each a chain of 200 events alternating between the lane and
     later keys *)
  let eng = Engine.create () in
  let left = Array.make 64 0 in
  let stage = ref 0 in
  stage :=
    Engine.register eng (fun s ->
        left.(s) <- left.(s) - 1;
        if left.(s) > 0 then
          if left.(s) land 1 = 0 then Engine.at_stage eng (Engine.now eng) !stage s
          else Engine.after_stage eng (Time.ps (1 + (s * 70_000))) !stage s);
  let engine_cycle () =
    for s = 0 to 63 do
      left.(s) <- 200;
      Engine.at_stage eng (Engine.now eng) !stage s
    done;
    Engine.run eng
  in
  calendar_cycle 1;
  engine_cycle ();
  let before = Gc.minor_words () in
  calendar_cycle 2;
  engine_cycle ();
  let words = Gc.minor_words () -. before in
  checki "every stage event dispatched" (2 * 64 * 200) (Engine.run_stats eng).Engine.events_dispatched;
  if words > 256. then Alcotest.failf "steady-state stage events allocated %.0f minor words" words

(* a fiber's [delay] on a warm engine: the effect, its continuation and the
   closure of the event that resumes it are all that may allocate (9 minor
   words); a handler closure built on every perform would add 7 *)
let test_fiber_delay_alloc () =
  let eng = Engine.create () in
  let n = 10_000 in
  let fiber () =
    for _ = 1 to n do
      Engine.delay (Time.ns 1)
    done
  in
  Engine.spawn eng fiber;
  Engine.run eng;
  let before = Gc.minor_words () in
  Engine.spawn eng fiber;
  Engine.run eng;
  let per_event = (Gc.minor_words () -. before) /. float_of_int n in
  if per_event > 10. then
    Alcotest.failf "fiber delay allocated %.1f minor words per event (limit 10)" per_event

let test_heap_pop_min_value () =
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.add h ~key:k ~seq:i (k * 10)) [ 5; 1; 4 ];
  checki "payload of the minimum" 10 (Heap.pop_min_value h);
  checki "next payload" 40 (Heap.pop_min_value h);
  checki "last payload" 50 (Heap.pop_min_value h);
  Alcotest.check_raises "empty raises" Not_found (fun () -> ignore (Heap.pop_min_value h))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    checkb "same stream" true (Rng.int64 a = Rng.int64 b)
  done;
  let c = Rng.create ~seed:8 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 c then distinct := true
  done;
  checkb "different seeds differ" true !distinct

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:3 in
  let s = Rng.split r in
  (* draws from the split stream do not affect the parent's determinism *)
  let r2 = Rng.create ~seed:3 in
  ignore (Rng.split r2);
  ignore (Rng.int64 s);
  checkb "parent streams aligned" true (Rng.int64 r = Rng.int64 r2)

(* The unboxed generator draws the stream of the plain one: a random mix of
   every draw kind, splits included, from a random seed. *)
let rng_matches_oracle =
  QCheck.Test.make ~name:"Rng draws the oracle's stream" ~count:300
    QCheck.(pair int (list_of_size Gen.(1 -- 200) (pair (int_bound 5) (int_range 1 1_000_000))))
    (fun (seed, draws) ->
      let r = ref (Rng.create ~seed) and o = ref (Rng_oracle.create ~seed) in
      List.for_all
        (fun (kind, bound) ->
          match kind with
          | 0 -> Rng.int64 !r = Rng_oracle.int64 !o
          | 1 -> Rng.int !r bound = Rng_oracle.int !o bound
          | 2 -> Rng.int !r max_int = Rng_oracle.int !o max_int
          | 3 -> Int64.bits_of_float (Rng.float !r) = Int64.bits_of_float (Rng_oracle.float !o)
          | 4 -> Rng.bool !r = Rng_oracle.bool !o
          | _ ->
              r := Rng.split !r;
              o := Rng_oracle.split !o;
              true)
        draws)

(* An integer draw allocates nothing; a float draw at most its boxed
   result when the call is not inlined (2 words). *)
let test_rng_allocation () =
  let r = Rng.create ~seed:1 in
  let n = 100_000 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc + Rng.int r 1000
  done;
  let ints = (Gc.minor_words () -. before) /. float_of_int n in
  let facc = ref 0. in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    facc := !facc +. Rng.float r
  done;
  let floats = (Gc.minor_words () -. before) /. float_of_int n in
  checkb (Printf.sprintf "int draw: %.2f words" ints) true (ints < 0.01);
  checkb (Printf.sprintf "float draw: %.2f words" floats) true (floats <= 2.01);
  checkb "draws used" true (!acc >= 0 && !facc >= 0.)

let shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair (list int) small_int)
    (fun (l, seed) ->
      let arr = Array.of_list l in
      Rng.shuffle (Rng.create ~seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let c = Stats.Counter.create "c" in
  Stats.Counter.incr c;
  Stats.Counter.add c 10;
  checki "value" 11 (Stats.Counter.value c);
  checks "name" "c" (Stats.Counter.name c);
  Stats.Counter.reset c;
  checki "reset" 0 (Stats.Counter.value c)

(* registry histograms are the HDR type: quantiles stay within a bucket
   width of the sample, and snapshot, diff and JSON carry its buckets *)
let test_histogram () =
  let r = Stats.Registry.create () in
  let h = Stats.Registry.histogram r ~subsystem:"nic" "lat" in
  List.iter (Stats.Histogram.observe h) [ 0; 1; 2; 3; 100; 100 ];
  checki "count" 6 (Stats.Histogram.count h);
  checki "p100 is the exact maximum" 100 (Stats.Histogram.quantile h 1.0);
  checki "p1 exact below 32" 0 (Stats.Histogram.quantile h 0.01);
  let before = Stats.Registry.snapshot r in
  (match List.assoc "nic/lat" before with
  | Stats.Registry.Histogram_v { count; buckets } ->
      checki "snapshot count" 6 count;
      check
        (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
        "snapshot buckets" (Stats.Histogram.buckets h) buckets
  | _ -> Alcotest.fail "expected a histogram value");
  Stats.Histogram.observe h 100;
  (match List.assoc "nic/lat" (Stats.Registry.diff ~before ~after:(Stats.Registry.snapshot r)) with
  | Stats.Registry.Histogram_v { count = 1; buckets = [ (lo, hi, 1) ] } ->
      checkb "moved bucket holds 100" true (lo <= 100 && 100 <= hi)
  | _ -> Alcotest.fail "expected one moved bucket");
  let json = Stats.Registry.snapshot_to_json (Stats.Registry.snapshot r) in
  checkb "json carries [lo,hi,count] buckets" true
    (match Str.search_forward (Str.regexp_string "\"buckets\":[[0,0,1],") json 0 with
    | _ -> true
    | exception Not_found -> false);
  Stats.Registry.reset r;
  checki "reset" 0 (Stats.Histogram.count h)

let test_registry () =
  let r = Stats.Registry.create () in
  let c = Stats.Registry.counter r ~node:0 ~subsystem:"nic" "tx_packets" in
  Stats.Counter.add c 5;
  (* find-or-create: the same name yields the same counter *)
  let c' = Stats.Registry.counter r ~node:0 ~subsystem:"nic" "tx_packets" in
  Stats.Counter.incr c';
  checki "shared instance" 6 (Stats.Counter.value c);
  let h = Stats.Registry.histogram r ~subsystem:"cluster" "lat" in
  Stats.Histogram.observe h 40;
  checki "size" 2 (Stats.Registry.size r);
  let snap = Stats.Registry.snapshot r in
  check
    (Alcotest.list Alcotest.string)
    "sorted full names"
    [ "cluster/lat"; "node0/nic/tx_packets" ]
    (List.map fst snap);
  (match List.assoc "node0/nic/tx_packets" snap with
  | Stats.Registry.Counter_v n -> checki "snapshot value" 6 n
  | _ -> Alcotest.fail "expected a counter value");
  (* diff subtracts counters between snapshots *)
  Stats.Counter.add c 4;
  (match List.assoc "node0/nic/tx_packets" (Stats.Registry.diff ~before:snap ~after:(Stats.Registry.snapshot r)) with
  | Stats.Registry.Counter_v n -> checki "diff movement" 4 n
  | _ -> Alcotest.fail "expected a counter value");
  (* re-registering a name under a different metric type is an error *)
  (match Stats.Registry.histogram r ~node:0 ~subsystem:"nic" "tx_packets" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on type mismatch");
  let json = Stats.Registry.snapshot_to_json (Stats.Registry.snapshot r) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "json names the counter" true (contains json "node0/nic/tx_packets");
  Stats.Registry.reset r;
  checki "reset counters" 0 (Stats.Counter.value c);
  checki "reset histograms" 0 (Stats.Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let with_trace ~capacity f =
  Trace.set_capacity capacity;
  Trace.enable ();
  Fun.protect f ~finally:(fun () ->
      Trace.disable ();
      Trace.set_capacity Trace.default_capacity)

let test_trace_gating () =
  with_trace ~capacity:64 (fun () ->
      Trace.disable ();
      Trace.emit ~t_ps:1 ~node:0 Trace.Nic ~label:"x" ~payload:0;
      checki "disabled emit is dropped" 0 (Trace.length ());
      Trace.enable ~cats:[ Trace.Dsm ] ();
      checkb "selected category" true (Trace.enabled_cat Trace.Dsm);
      checkb "unselected category" false (Trace.enabled_cat Trace.Nic);
      Trace.emit ~t_ps:2 ~node:0 Trace.Nic ~label:"x" ~payload:0;
      Trace.emit ~t_ps:3 ~node:1 Trace.Dsm ~label:"y" ~payload:7;
      checki "only selected recorded" 1 (Trace.length ());
      match Trace.records () with
      | [ r ] ->
          checki "t_ps" 3 r.Trace.t_ps;
          checki "node" 1 r.Trace.node;
          checks "label" "y" r.Trace.label
      | l -> Alcotest.failf "expected 1 record, got %d" (List.length l))

let test_trace_spans () =
  with_trace ~capacity:64 (fun () ->
      (* nested spans on different nodes pair by (node, category, label) *)
      Trace.span_begin ~t_ps:10 ~node:1 Trace.Dsm ~label:"barrier" ~payload:0;
      Trace.span_begin ~t_ps:20 ~node:2 Trace.Dsm ~label:"barrier" ~payload:0;
      Trace.span_end ~t_ps:25 ~node:2 Trace.Dsm ~label:"barrier" ~payload:0;
      Trace.span_end ~t_ps:40 ~node:1 Trace.Dsm ~label:"barrier" ~payload:0;
      match Trace.spans () with
      | [ s2; s1 ] ->
          checki "inner node" 2 s2.Trace.span_node;
          checki "inner duration" 5 s2.Trace.duration_ps;
          checki "outer node" 1 s1.Trace.span_node;
          checki "outer duration" 30 s1.Trace.duration_ps
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

let trace_keeps_newest =
  QCheck.Test.make ~name:"trace ring keeps the newest records in order" ~count:200
    QCheck.(pair (int_range 1 48) (int_range 0 150))
    (fun (cap, n) ->
      Trace.set_capacity cap;
      Trace.enable ();
      for i = 0 to n - 1 do
        Trace.emit ~t_ps:i ~node:0 Trace.Nic ~label:"qc" ~payload:i
      done;
      let got = List.map (fun r -> r.Trace.payload) (Trace.records ()) in
      let kept = Stdlib.min cap n in
      let counts_ok = Trace.length () = kept && Trace.emitted () = n && Trace.dropped () = n - kept in
      Trace.disable ();
      Trace.set_capacity Trace.default_capacity;
      counts_ok && got = List.init kept (fun i -> n - kept + i))

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basic () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  checki "length" 100 (Vec.length v);
  checki "get" 49 (Vec.get v 7);
  Vec.set v 7 0;
  checki "set" 0 (Vec.get v 7);
  checki "fold" (List.fold_left ( + ) 0 (Vec.to_list v)) (Vec.fold_left ( + ) 0 v);
  Vec.clear v;
  checki "cleared" 0 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng (Time.ns 30) (fun () -> log := 30 :: !log);
  Engine.at eng (Time.ns 10) (fun () -> log := 10 :: !log);
  Engine.at eng (Time.ns 20) (fun () -> log := 20 :: !log);
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "time order" [ 10; 20; 30 ] (List.rev !log);
  checki "clock at last event" (Time.to_ps (Time.ns 30)) (Time.to_ps (Engine.now eng))

let test_fifo_same_time () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Engine.at eng (Time.ns 5) (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "insertion order" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  List.iter (fun t -> Engine.at eng (Time.ns t) (fun () -> incr fired)) [ 10; 20; 30; 40 ];
  Engine.run_until eng (Time.ns 25);
  checki "two fired" 2 !fired;
  checki "two pending" 2 (Engine.pending eng);
  (* the clock stays at the last dispatched event, not at the limit *)
  checki "now at the last dispatched event" (Time.to_ps (Time.ns 20))
    (Time.to_ps (Engine.now eng));
  Engine.run eng;
  checki "all fired" 4 !fired

(* an event scheduled at [now] between two [run_until]s waits in the
   same-instant lane; a limit below [now] must not dispatch it *)
let test_run_until_below_now () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.at eng (Time.ns 10) (fun () -> ());
  Engine.run_until eng (Time.ns 15);
  Engine.at eng (Engine.now eng) (fun () -> incr fired);
  Engine.run_until eng (Time.ns 5);
  checki "not dispatched below now" 0 !fired;
  checki "still pending" 1 (Engine.pending eng);
  Engine.run_until eng (Time.ns 10);
  checki "dispatched at now" 1 !fired;
  checki "drained" 0 (Engine.pending eng)

let test_fiber_delay () =
  let eng = Engine.create () in
  let t_end = ref Time.zero in
  Engine.spawn eng (fun () ->
      Engine.delay (Time.ns 100);
      Engine.delay (Time.ns 50);
      t_end := Engine.now eng);
  Engine.run eng;
  checki "delays accumulate" (Time.to_ps (Time.ns 150)) (Time.to_ps !t_end)

let test_fiber_suspend_resume () =
  let eng = Engine.create () in
  let resumer = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () -> got := Engine.suspend (fun r -> resumer := Some r));
  Engine.at eng (Time.ns 500) (fun () -> Option.get !resumer 42);
  Engine.run eng;
  checki "resumed with value" 42 !got

let test_double_resume_raises () =
  let eng = Engine.create () in
  let resumer = ref None in
  Engine.spawn eng (fun () -> Engine.suspend (fun r -> resumer := Some r));
  Engine.at eng (Time.ns 1) (fun () -> Option.get !resumer ());
  Engine.run eng;
  Alcotest.check_raises "second resume" (Invalid_argument "Engine: fiber \"fiber\" resumed twice")
    (fun () -> Option.get !resumer ())

let test_fiber_exception_annotated () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"bad" (fun () -> failwith "boom");
  match Engine.run eng with
  | () -> Alcotest.fail "expected Fiber_failure"
  | exception Engine.Fiber_failure (name, Failure msg) ->
      checks "original exception kept" "boom" msg;
      checkb "name mentions fiber" true (String.length name >= 3 && String.sub name 0 3 = "bad")
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)

(* [suspend]'s resume is lane-pushed: the fiber continues in an event of its
   own, after the resuming event has finished, where an [await] would have
   continued inside it *)
let test_suspend_resumes_in_own_event () =
  let eng = Engine.create () in
  let resumer = ref ignore and resumer_done = ref false and seen = ref None in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun r -> resumer := r);
      seen := Some (!resumer_done, (Engine.run_stats eng).Engine.events_dispatched));
  Engine.at eng (Time.ns 10) (fun () ->
      !resumer ();
      resumer_done := true);
  Engine.run eng;
  (* events: the spawn, the resuming event, the resume *)
  check Alcotest.(option (pair bool int)) "after its resumer, as the third event"
    (Some (true, 3)) !seen

let test_at_in_the_past_clamped () =
  let eng = Engine.create () in
  let t = ref Time.zero in
  Engine.at eng (Time.ns 100) (fun () ->
      (* schedule "earlier" than now: must fire at now, not travel back *)
      Engine.at eng (Time.ns 10) (fun () -> t := Engine.now eng));
  Engine.run eng;
  checki "clamped to now" (Time.to_ps (Time.ns 100)) (Time.to_ps !t)

let test_run_stats () =
  let eng = Engine.create () in
  let s0 = Engine.run_stats eng in
  checki "fresh: dispatched" 0 s0.Engine.events_dispatched;
  checki "fresh: max depth" 0 s0.Engine.max_heap_depth;
  checki "fresh: clamps" 0 s0.Engine.past_clamps;
  Engine.at eng (Time.ns 100) (fun () ->
      (* scheduling into the past: clamped AND counted *)
      Engine.at eng (Time.ns 10) (fun () -> ()));
  Engine.at eng (Time.ns 200) (fun () -> ());
  Engine.run eng;
  let s = Engine.run_stats eng in
  checki "dispatched" 3 s.Engine.events_dispatched;
  checki "past clamps counted" 1 s.Engine.past_clamps;
  checki "max heap depth" 2 s.Engine.max_heap_depth;
  (* an on-time schedule does not count as a clamp *)
  Engine.at eng (Time.ns 300) (fun () -> ());
  Engine.run eng;
  checki "no new clamps" 1 (Engine.run_stats eng).Engine.past_clamps

let test_clamp_emits_trace () =
  with_trace ~capacity:64 (fun () ->
      Trace.disable ();
      Trace.enable ~cats:[ Trace.Engine ] ();
      let eng = Engine.create () in
      Engine.at eng (Time.ns 100) (fun () -> Engine.at eng (Time.ns 60) (fun () -> ()));
      Engine.run eng;
      let clamps =
        List.filter (fun r -> r.Trace.label = "past-clamp") (Trace.records ())
      in
      match clamps with
      | [ r ] ->
          checki "emitted at now" (Time.to_ps (Time.ns 100)) r.Trace.t_ps;
          checki "payload is the clamped distance in ps" (Time.to_ps (Time.ns 40)) r.Trace.payload
      | l -> Alcotest.failf "expected 1 past-clamp record, got %d" (List.length l))

let test_run_until_boundary () =
  let eng = Engine.create () in
  let fired = ref [] in
  List.iter (fun t -> Engine.at eng (Time.ns t) (fun () -> fired := t :: !fired)) [ 10; 20; 30 ];
  (* events exactly at the limit are included *)
  Engine.run_until eng (Time.ns 20);
  check (Alcotest.list Alcotest.int) "inclusive boundary" [ 10; 20 ] (List.rev !fired);
  Engine.run eng

let test_spawn_starts_at_now () =
  let eng = Engine.create () in
  let started = ref Time.zero in
  Engine.at eng (Time.us 5) (fun () ->
      Engine.spawn eng (fun () -> started := Engine.now eng));
  Engine.run eng;
  checki "spawn at current time" (Time.to_ps (Time.us 5)) (Time.to_ps !started)

(* determinism: two identical simulations produce identical traces *)
let test_determinism () =
  let run () =
    let eng = Engine.create () in
    let rng = Rng.create ~seed:11 in
    let log = Buffer.create 64 in
    for i = 0 to 50 do
      Engine.at eng (Time.ns (Rng.int rng 1000)) (fun () -> Buffer.add_string log (string_of_int i))
    done;
    Engine.run eng;
    Buffer.contents log
  in
  checks "identical runs" (run ()) (run ())

(* Model test of dispatch order. A random program schedules events whose
   children land at [now], a little later, or in the past (clamped), and
   spawns fibers that delay and suspend until an event resumes them.
   The reference is the definition of the engine's order: every event gets
   a label (time, scheduling order) when it is scheduled, and each dispatch
   must be the least label still pending, at that label's time. The program
   runs in [run_until] slices, which must never dispatch past their limit;
   after each slice it may schedule more events from outside.

   Two scales. With offsets of a few picoseconds, equal times — queued
   events keyed [now] next to same-instant ones — occur constantly. With
   offsets in units up to half the calendar queue's window, delays run from
   0 to 3 windows, bursts put 1,000 or more events in one bucket, and an
   event scheduled after a slice can land below the bucket that [run_until]
   peeked at past its limit. *)
type prog_event =
  | Event of int * prog_event list  (* at now + offset, then schedule the children *)
  | Fiber of prog_step list
  | Burst of int * int
      (* [n] events within half a bucket of now + offset; every third, when
         dispatched, schedules one more a few picoseconds later *)

and prog_step =
  | Sleep of int  (* delay *)
  | Wait of int  (* suspend; an event at now + offset resumes the fiber *)
  | Fork of prog_event

let rec show_event = function
  | Event (off, cs) -> Printf.sprintf "Event(%d,[%s])" off (String.concat ";" (List.map show_event cs))
  | Fiber ss -> Printf.sprintf "Fiber[%s]" (String.concat ";" (List.map show_step ss))
  | Burst (n, off) -> Printf.sprintf "Burst(%d,%d)" n off

and show_step = function
  | Sleep d -> Printf.sprintf "Sleep %d" d
  | Wait off -> Printf.sprintf "Wait %d" off
  | Fork e -> "Fork " ^ show_event e

(* the offset, delay and wait generators of one scale, and whether bursts occur *)
type prog_scale = {
  offset : int QCheck.Gen.t;
  sleep : int QCheck.Gen.t;
  wait : int QCheck.Gen.t;
  bursts : bool;
}

let ps_scale =
  QCheck.Gen.{ offset = int_range (-3) 6; sleep = int_bound 6; wait = int_range (-2) 6; bursts = false }

(* [k] units plus, sometimes, a jitter of up to a quarter unit *)
let unit_scale u =
  let open QCheck.Gen in
  let jitter = frequency [ (2, return 0); (1, int_bound (u / 4)) ] in
  let units lo hi = map2 (fun k j -> (k * u) + j) (int_range lo hi) jitter in
  { offset = units (-3) 6; sleep = units 0 6; wait = units (-2) 6; bursts = true }

let rec gen_event sc depth =
  let open QCheck.Gen in
  let children =
    if depth = 0 then return [] else list_size (int_bound 3) (gen_event sc (depth - 1))
  in
  frequency
    ([
       (3, map2 (fun off cs -> Event (off, cs)) sc.offset children);
       (1, map (fun ss -> Fiber ss) (list_size (int_bound 4) (gen_step sc depth)));
     ]
    @ if sc.bursts then [ (1, map2 (fun n off -> Burst (n, off)) (int_range 1000 1200) sc.offset) ]
      else [])

and gen_step sc depth =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun d -> Sleep d) sc.sleep);
      (2, map (fun off -> Wait off) sc.wait);
      (1, if depth = 0 then return (Sleep 0) else map (fun e -> Fork e) (gen_event sc (depth - 1)));
    ]

module Labels = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let run_program (roots, slices) =
  let eng = Engine.create () in
  let ok = ref true in
  let fail () = ok := false in
  let next_seq = ref 0 in
  let pending = ref Labels.empty (* labels (time, seq) scheduled, not yet dispatched *) in
  let npending = ref 0 in
  let max_pending = ref 0 in
  let limit = ref max_int in
  let now () = Time.to_ps (Engine.now eng) in
  (* called just before the engine call that schedules the event *)
  let label time =
    let l = (max time (now ()), !next_seq) in
    incr next_seq;
    pending := Labels.add l !pending;
    incr npending;
    max_pending := max !max_pending !npending;
    l
  in
  let dispatched l =
    if l <> Labels.min_elt !pending || fst l <> now () || now () > !limit then fail ();
    if Engine.pending eng <> !npending - 1 then fail ();
    pending := Labels.remove l !pending;
    decr npending
  in
  let rec schedule = function
    | Event (off, children) ->
        let l = label (now () + off) in
        Engine.at eng (Time.ps (now () + off)) (fun () ->
            dispatched l;
            List.iter schedule children)
    | Fiber steps ->
        let l = label (now ()) in
        Engine.spawn eng (fun () ->
            dispatched l;
            List.iter step steps)
    | Burst (n, off) ->
        let base = now () + off in
        for i = 0 to n - 1 do
          (* spread over 2^17 ps, with equal times 1,021 events apart *)
          let time = base + (i * 7919 mod 1021 * 128) in
          let l = label time in
          Engine.at eng (Time.ps time) (fun () ->
              dispatched l;
              if i mod 3 = 0 then schedule (Event (i mod 5, [])))
        done
  and step = function
    | Sleep d ->
        let l = label (now () + d) in
        Engine.delay (Time.ps d);
        dispatched l
    | Wait off ->
        let resume = ref ignore and woken = ref (0, 0) in
        let l = label (now () + off) in
        Engine.at eng (Time.ps (now () + off)) (fun () ->
            dispatched l;
            woken := label (now ());
            !resume ());
        Engine.suspend (fun r -> resume := r);
        dispatched !woken
    | Fork e -> schedule e
  in
  List.iter schedule roots;
  List.iter
    (fun (s, injected) ->
      limit := s;
      Engine.run_until eng (Time.ps s);
      limit := max_int;
      List.iter schedule injected)
    slices;
  limit := max_int;
  Engine.run eng;
  !ok && Labels.is_empty !pending
  && (Engine.run_stats eng).Engine.events_dispatched = !next_seq
  && (Engine.run_stats eng).Engine.max_heap_depth = !max_pending

let print_program (roots, slices) =
  Printf.sprintf "roots=[%s] slices=[%s]"
    (String.concat "; " (List.map show_event roots))
    (String.concat ";"
       (List.map
          (fun (s, inj) ->
            if inj = [] then string_of_int s
            else Printf.sprintf "%d+[%s]" s (String.concat "; " (List.map show_event inj)))
          slices))

let engine_dispatch_model =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 6) (gen_event ps_scale 3))
        (map
           (fun l -> List.map (fun s -> (s, [])) (List.sort compare l))
           (list_size (int_bound 4) (int_bound 30))))
  in
  QCheck.Test.make ~name:"dispatch order = (time, scheduling order) reference" ~count:500
    (QCheck.make ~print:print_program gen) run_program

(* units from one picosecond to half the calendar's 2^28 ps window, across
   its 2^18 ps bucket width *)
let engine_dispatch_model_calendar =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 1 lsl 10; 1 lsl 17; 1 lsl 18; 1 lsl 19; 1 lsl 27 ] >>= fun u ->
      let sc = unit_scale u in
      pair
        (list_size (int_range 1 6) (gen_event sc 3))
        (map
           (List.sort (fun (a, _) (b, _) -> compare a b))
           (list_size (int_bound 4)
              (pair (int_bound (30 * u)) (list_size (int_bound 3) (gen_event sc 1))))))
  in
  QCheck.Test.make
    ~name:"dispatch order = reference across buckets, bursts and the window" ~count:200
    (QCheck.make ~print:print_program gen) run_program

(* ------------------------------------------------------------------ *)
(* Sync                                                                *)
(* ------------------------------------------------------------------ *)

let run_in_engine f =
  let eng = Engine.create () in
  f eng;
  Engine.run eng

(* A hold of a free semaphore takes the unit inline: the one closure that
   releases it and continues is all it builds (5 words), where an acquire
   continuation built only to be called at once would add 7. *)
let test_free_hold_alloc () =
  let eng = Engine.create () in
  let sem = Sync.Semaphore.create 1 in
  let k () = () in
  let hold () =
    Sync.Semaphore.hold_then eng sem (Time.ns 1) k;
    Engine.run eng
  in
  for _ = 1 to 100 do
    hold ()
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    hold ()
  done;
  let per_hold = (Gc.minor_words () -. before) /. float_of_int n in
  checki "the unit is back" 1 (Sync.Semaphore.available sem);
  if per_hold > 6. then
    Alcotest.failf "a free hold allocated %.1f minor words (limit 6)" per_hold

let test_ivar () =
  run_in_engine (fun eng ->
      let iv = Sync.Ivar.create () in
      let seen = ref [] in
      for i = 1 to 3 do
        Engine.spawn eng (fun () ->
            (* bind before consing: the read suspends mid-expression, and
               cons evaluates its right operand first *)
            let v = Sync.Ivar.read iv in
            seen := (i, v) :: !seen)
      done;
      Engine.at eng (Time.ns 10) (fun () -> Sync.Ivar.fill iv "v");
      Engine.at eng (Time.ns 20) (fun () ->
          checki "all readers woke" 3 (List.length !seen);
          checkb "filled" true (Sync.Ivar.is_filled iv);
          checkb "peek" true (Sync.Ivar.peek iv = Some "v")));
  let iv = Sync.Ivar.create () in
  Sync.Ivar.fill iv 1;
  Alcotest.check_raises "refill" (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Sync.Ivar.fill iv 2)

let test_ivar_read_after_fill () =
  run_in_engine (fun eng ->
      let iv = Sync.Ivar.create () in
      Sync.Ivar.fill iv 9;
      Engine.spawn eng (fun () -> checki "immediate" 9 (Sync.Ivar.read iv)))

let test_semaphore () =
  run_in_engine (fun eng ->
      let sem = Sync.Semaphore.create 2 in
      let active = ref 0 and peak = ref 0 in
      for _ = 1 to 5 do
        Engine.spawn eng (fun () ->
            Sync.Semaphore.acquire sem;
            incr active;
            if !active > !peak then peak := !active;
            Engine.delay (Time.ns 100);
            decr active;
            Sync.Semaphore.release sem)
      done;
      Engine.at eng (Time.ns 1000) (fun () -> checki "at most 2 concurrent" 2 !peak))

let test_semaphore_fifo () =
  run_in_engine (fun eng ->
      let sem = Sync.Semaphore.create 0 in
      let woke = ref [] in
      for i = 1 to 4 do
        Engine.spawn eng (fun () ->
            Sync.Semaphore.acquire sem;
            woke := i :: !woke)
      done;
      Engine.at eng (Time.ns 10) (fun () ->
          checki "four waiting" 4 (Sync.Semaphore.waiting sem);
          for _ = 1 to 4 do
            Sync.Semaphore.release sem
          done);
      Engine.at eng (Time.ns 20) (fun () ->
          check (Alcotest.list Alcotest.int) "FIFO wakeups" [ 1; 2; 3; 4 ] (List.rev !woke)))

let test_semaphore_try () =
  let sem = Sync.Semaphore.create 1 in
  checkb "first try" true (Sync.Semaphore.try_acquire sem);
  checkb "second try" false (Sync.Semaphore.try_acquire sem);
  Sync.Semaphore.release sem;
  checki "available" 1 (Sync.Semaphore.available sem)

(* A closure the engine has run is not kept alive, whichever way it came
   in: [at] a later time (the calendar), [at] now (the lane), and a
   semaphore callback waiter that a [release] wakes. Each closure captures
   a fresh value a weak array watches. *)
let[@inline never] plant_closures eng w =
  let watched i =
    let v = ref i in
    Weak.set w i (Some v);
    fun () -> incr v
  in
  let sem = Sync.Semaphore.create 0 in
  Engine.at eng (Time.ns 10) (watched 0);
  Engine.at eng (Engine.now eng) (watched 1);
  Sync.Semaphore.acquire_then eng sem (watched 2);
  Engine.at eng (Time.ns 20) (fun () -> Sync.Semaphore.release sem)

let test_run_closures_released () =
  let eng = Engine.create () in
  let w = Weak.create 3 in
  plant_closures eng w;
  Engine.run eng;
  Gc.full_major ();
  List.iteri
    (fun i way -> checkb (way ^ ": collected") true (Weak.get w i = None))
    [ "at later"; "at now"; "semaphore waiter" ];
  (* the engine outlives the collection, so its table was looked at *)
  checki "all four ran" 4 (Engine.run_stats eng).Engine.events_dispatched

(* ------------------------------------------------------------------ *)
(* Fiber waits and callback waits                                      *)
(* ------------------------------------------------------------------ *)

(* Programs of resource holds on shared semaphores. The board's per-frame
   stages are callback chains, and handler code waits as fibers on the same
   resources: each program runs as fibers that wait through effects and as
   callback chains, and both must dispatch the same events in the same
   order. A third run waits through a semaphore built on [Engine.suspend]
   alone, the reference, so a change that moves both production forms at
   once is caught too. *)
type wait_prog = { label : int; steps : wait_step list }

and wait_step =
  | Hold of int * int  (* acquire semaphore i, hold it d ps, release *)
  | Pause of int
  | Spawn_prog of wait_prog  (* a new program in an event of its own *)
  | Start_prog of wait_prog  (* a new program begun inside the current event *)

let rec show_wait_prog p =
  Printf.sprintf "%d:[%s]" p.label (String.concat ";" (List.map show_wait_step p.steps))

and show_wait_step = function
  | Hold (i, d) -> Printf.sprintf "Hold(%d,%d)" i d
  | Pause d -> Printf.sprintf "Pause %d" d
  | Spawn_prog p -> "Spawn " ^ show_wait_prog p
  | Start_prog p -> "Start " ^ show_wait_prog p

let rec gen_wait_prog depth =
  let open QCheck.Gen in
  let sub f = if depth = 0 then return (Pause 0) else map f (gen_wait_prog (depth - 1)) in
  map
    (fun steps -> { label = 0; steps })
    (list_size (int_bound 4)
       (frequency
          [
            (4, map2 (fun i d -> Hold (i, d)) (int_bound 1) (int_bound 5));
            (1, map (fun d -> Pause d) (int_bound 5));
            (1, sub (fun p -> Spawn_prog p));
            (1, sub (fun p -> Start_prog p));
          ]))

(* number the programs in preorder, so every log line names its program *)
let label_progs progs =
  let next = ref 0 in
  let rec prog p =
    let label = !next in
    incr next;
    { label; steps = List.map step p.steps }
  and step = function
    | Spawn_prog p -> Spawn_prog (prog p)
    | Start_prog p -> Start_prog (prog p)
    | (Hold _ | Pause _) as s -> s
  in
  List.map prog progs

module Suspend_semaphore = struct
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create count = { count; waiters = Queue.create () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let release t =
    match Queue.take_opt t.waiters with Some resume -> resume () | None -> t.count <- t.count + 1
end

(* [Stage_waits] runs every program as registered stages over pooled slots;
   [Mixed_waits] runs the even-labelled programs so and the odd ones as
   fibers, so stage and fiber waiters queue on one semaphore together. *)
type wait_mode = Suspend_waits | Fiber_waits | Callback_waits | Stage_waits | Mixed_waits

let run_waits mode (progs, counts) =
  let eng = Engine.create () in
  let log = ref [] in
  let note label = log := (Time.to_ps (Engine.now eng), label) :: !log in
  let old_sems = Array.map Suspend_semaphore.create counts in
  let sems = Array.map Sync.Semaphore.create counts in
  (* the stage interpreter: a running program is a slot holding its label
     and the index of its next step *)
  let by_label = Hashtbl.create 16 in
  let rec index p =
    Hashtbl.replace by_label p.label (Array.of_list p.steps);
    List.iter (function Spawn_prog c | Start_prog c -> index c | Hold _ | Pause _ -> ()) p.steps
  in
  List.iter index progs;
  let pool = Cni_engine.Pool.create () in
  let prog = ref [||] and pc = ref [||] in
  let alloc label =
    let s = Cni_engine.Pool.alloc pool in
    if s >= Array.length !prog then begin
      let n = Cni_engine.Pool.capacity pool in
      prog := Cni_engine.Pool.extend !prog n 0;
      pc := Cni_engine.Pool.extend !pc n 0
    end;
    !prog.(s) <- label;
    !pc.(s) <- 0;
    s
  in
  let staged p = mode = Stage_waits || (mode = Mixed_waits && p.label mod 2 = 0) in
  let st_begin = ref 0 and st_acquired = ref 0 and st_held = ref 0 and st_paused = ref 0 in
  (* the step a stage event continues *)
  let current s = (Hashtbl.find by_label !prog.(s)).(!pc.(s) - 1) in
  let rec go s =
    let steps = Hashtbl.find by_label !prog.(s) in
    if !pc.(s) >= Array.length steps then Cni_engine.Pool.release pool s
    else begin
      !pc.(s) <- !pc.(s) + 1;
      match steps.(!pc.(s) - 1) with
      | Hold (i, d) ->
          if Sync.Semaphore.acquire_stage eng sems.(i) !st_acquired s then
            Engine.after_stage eng (Time.ps d) !st_held s
      | Pause d -> Engine.after_stage eng (Time.ps d) !st_paused s
      | Spawn_prog c ->
          spawn c;
          note !prog.(s);
          go s
      | Start_prog c ->
          start c;
          note !prog.(s);
          go s
    end
  and begin_ s =
    note !prog.(s);
    go s
  and spawn c =
    if staged c then Engine.at_stage eng (Engine.now eng) !st_begin (alloc c.label)
    else Engine.spawn eng (fun () -> fiber c)
  and start c = if staged c then begin_ (alloc c.label) else Engine.start eng (fun () -> fiber c)
  and fiber p =
    note p.label;
    List.iter
      (fun s ->
        (match s with
        | Hold (i, d) ->
            if mode = Suspend_waits then Suspend_semaphore.acquire old_sems.(i)
            else Sync.Semaphore.acquire sems.(i);
            Engine.delay (Time.ps d);
            if mode = Suspend_waits then Suspend_semaphore.release old_sems.(i)
            else Sync.Semaphore.release sems.(i)
        | Pause d -> Engine.delay (Time.ps d)
        | Spawn_prog c -> spawn c
        | Start_prog c -> start c);
        note p.label)
      p.steps
  in
  st_begin := Engine.register eng begin_;
  st_acquired :=
    Engine.register eng (fun s ->
        match current s with
        | Hold (_, d) -> Engine.after_stage eng (Time.ps d) !st_held s
        | Pause _ | Spawn_prog _ | Start_prog _ -> assert false);
  st_held :=
    Engine.register eng (fun s ->
        (match current s with
        | Hold (i, _) -> Sync.Semaphore.release sems.(i)
        | Pause _ | Spawn_prog _ | Start_prog _ -> assert false);
        note !prog.(s);
        go s);
  st_paused :=
    Engine.register eng (fun s ->
        note !prog.(s);
        go s);
  let rec chain label = function
    | [] -> ()
    | s :: rest -> (
        let next () =
          note label;
          chain label rest
        in
        match s with
        | Hold (i, d) ->
            Sync.Semaphore.acquire_then eng sems.(i) (fun () ->
                Engine.after eng (Time.ps d) (fun () ->
                    Sync.Semaphore.release sems.(i);
                    next ()))
        | Pause d -> Engine.after eng (Time.ps d) next
        | Spawn_prog c ->
            Engine.at eng (Engine.now eng) (fun () -> callbacks c);
            next ()
        | Start_prog c ->
            callbacks c;
            next ())
  and callbacks p =
    note p.label;
    chain p.label p.steps
  in
  List.iter
    (fun p ->
      if mode = Callback_waits then Engine.at eng (Engine.now eng) (fun () -> callbacks p)
      else spawn p)
    progs;
  Engine.run eng;
  let s = Engine.run_stats eng in
  checkb "every slot released" true (Cni_engine.Pool.live pool = 0);
  (List.rev !log, s.Engine.events_dispatched, s.Engine.max_heap_depth, s.Engine.digest)

let waits_schedule_the_same_events =
  let gen =
    QCheck.Gen.(
      pair
        (map label_progs (list_size (int_range 1 4) (gen_wait_prog 2)))
        (map (fun (a, b) -> [| a; b |]) (pair (int_range 1 2) (int_range 1 2))))
  in
  let print (progs, counts) =
    Printf.sprintf "counts=(%d,%d) %s" counts.(0) counts.(1)
      (String.concat " " (List.map show_wait_prog progs))
  in
  QCheck.Test.make ~name:"fiber and callback waits dispatch the same events" ~count:500
    (QCheck.make ~print gen) (fun prog ->
      let reference = run_waits Suspend_waits prog in
      List.for_all
        (fun mode -> run_waits mode prog = reference)
        [ Fiber_waits; Callback_waits; Stage_waits; Mixed_waits ])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "cycles" `Quick test_time_cycles;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
          Alcotest.test_case "min_key/length/clear" `Quick test_heap_min_key;
          Alcotest.test_case "pop releases payload to the GC" `Quick test_heap_releases_on_pop;
          Alcotest.test_case "clear releases payloads to the GC" `Quick test_heap_releases_on_clear;
          Alcotest.test_case "pop_min_value releases payload to the GC" `Quick
            test_heap_releases_on_pop_min_value;
          Alcotest.test_case "pop_min_value order and emptiness" `Quick test_heap_pop_min_value;
          Alcotest.test_case "steady-state add/pop is allocation-free" `Quick
            test_heap_hot_path_no_alloc;
          qc heap_sorts;
          qc heap_model;
        ] );
      ( "calq",
        [
          Alcotest.test_case "steady-state add/pop is allocation-free" `Quick
            test_calendar_hot_path_no_alloc;
          Alcotest.test_case "stage events allocate nothing" `Quick test_stage_events_no_alloc;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          qc shuffle_is_permutation;
          qc rng_matches_oracle;
          Alcotest.test_case "draws do not allocate" `Quick test_rng_allocation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "trace",
        [
          Alcotest.test_case "gating" `Quick test_trace_gating;
          Alcotest.test_case "span pairing" `Quick test_trace_spans;
          qc trace_keeps_newest;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
        ] );
      ( "events",
        [
          Alcotest.test_case "time ordering" `Quick test_event_ordering;
          Alcotest.test_case "FIFO at equal time" `Quick test_fifo_same_time;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "run_until inclusive boundary" `Quick test_run_until_boundary;
          Alcotest.test_case "run_until below now dispatches nothing" `Quick
            test_run_until_below_now;
          Alcotest.test_case "spawn starts at now" `Quick test_spawn_starts_at_now;
          Alcotest.test_case "past events clamp to now" `Quick test_at_in_the_past_clamped;
          Alcotest.test_case "run_stats counters" `Quick test_run_stats;
          Alcotest.test_case "past clamp emits an Engine trace record" `Quick
            test_clamp_emits_trace;
          Alcotest.test_case "determinism" `Quick test_determinism;
          qc engine_dispatch_model;
          qc engine_dispatch_model_calendar;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "delay" `Quick test_fiber_delay;
          Alcotest.test_case "suspend/resume" `Quick test_fiber_suspend_resume;
          Alcotest.test_case "double resume raises" `Quick test_double_resume_raises;
          Alcotest.test_case "exceptions annotated" `Quick test_fiber_exception_annotated;
          Alcotest.test_case "suspend resumes in an event of its own" `Quick
            test_suspend_resumes_in_own_event;
          Alcotest.test_case "delay allocates at most 10 words per event" `Quick
            test_fiber_delay_alloc;
        ] );
      ( "sync",
        [
          Alcotest.test_case "ivar" `Quick test_ivar;
          Alcotest.test_case "ivar read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "semaphore limits concurrency" `Quick test_semaphore;
          Alcotest.test_case "semaphore FIFO wakeup" `Quick test_semaphore_fifo;
          Alcotest.test_case "semaphore try/available" `Quick test_semaphore_try;
          Alcotest.test_case "a run closure is not kept alive" `Quick test_run_closures_released;
          qc waits_schedule_the_same_events;
          Alcotest.test_case "a free hold builds one closure" `Quick test_free_hold_alloc;
        ] );
    ]
