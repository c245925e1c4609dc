(* Tests for the PATHFINDER packet classifier: patterns, the classification
   DAG (priorities, sharing, removal, backtracking), and fragment-aware
   dispatch over AAL5 cell streams. *)

module Pattern = Cni_pathfinder.Pattern
module Classifier = Cni_pathfinder.Classifier
module Dispatcher = Cni_pathfinder.Dispatcher
module Cell = Cni_atm.Cell
module Aal5 = Cni_atm.Aal5

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let header_of_string s =
  let b = Bytes.make 32 '\000' in
  Bytes.blit_string s 0 b 0 (min (String.length s) 32);
  b

(* ------------------------------------------------------------------ *)
(* Pattern                                                             *)
(* ------------------------------------------------------------------ *)

let test_field_validation () =
  Alcotest.check_raises "len 0" (Invalid_argument "Pattern.field: len must be within 1..7")
    (fun () -> ignore (Pattern.field ~offset:0 ~len:0 1));
  Alcotest.check_raises "len 9" (Invalid_argument "Pattern.field: len must be within 1..7")
    (fun () -> ignore (Pattern.field ~offset:0 ~len:9 1));
  Alcotest.check_raises "negative offset" (Invalid_argument "Pattern.field: negative offset")
    (fun () -> ignore (Pattern.field ~offset:(-1) ~len:1 1))

let test_field_matching () =
  let h = header_of_string "\x12\x34\x56\x78" in
  checkb "2-byte value" true (Pattern.matches [ Pattern.field ~offset:0 ~len:2 0x1234 ] h);
  checkb "wrong value" false (Pattern.matches [ Pattern.field ~offset:0 ~len:2 0x1235 ] h);
  checkb "masked match" true
    (Pattern.matches [ Pattern.field ~offset:0 ~len:2 ~mask:0xFF00 0x1200 ] h);
  checkb "mask applied to value too" true
    (Pattern.matches [ Pattern.field ~offset:0 ~len:2 ~mask:0xFF00 0x12FF ] h);
  checkb "multi-field conjunction" true
    (Pattern.matches
       [ Pattern.field ~offset:0 ~len:1 0x12; Pattern.field ~offset:3 ~len:1 0x78 ]
       h);
  checkb "one field failing fails all" false
    (Pattern.matches
       [ Pattern.field ~offset:0 ~len:1 0x12; Pattern.field ~offset:3 ~len:1 0x79 ]
       h)

(* an 8-byte big-endian value needs 64 bits: a 63-bit int would drop the top
   bit of the first byte, so [0x80 00 ..] would read 0 and match value 0 *)
let test_field_len_8_rejected () =
  Alcotest.check_raises "len 8" (Invalid_argument "Pattern.field: len must be within 1..7")
    (fun () -> ignore (Pattern.field ~offset:0 ~len:8 0));
  checkb "read_masked refuses len 8" true
    (Pattern.read_masked (header_of_string "\x80") ~offset:0 ~len:8 ~mask:(-1) = None)

let test_field_len_7_top_bit () =
  let h = header_of_string "\x80\x00\x00\x00\x00\x00\x01" in
  let f = Pattern.field ~offset:0 ~len:7 0x80_0000_0000_0001 in
  checkb "7-byte read keeps the first byte's top bit" true
    (Pattern.read_field h f = Some 0x80_0000_0000_0001);
  checkb "matches its exact value" true (Pattern.matches [ f ] h);
  checkb "zero does not match 0x80..." false
    (Pattern.matches [ Pattern.field ~offset:0 ~len:7 0 ] h);
  let c = Classifier.create () in
  ignore (Classifier.add c [ Pattern.field ~offset:0 ~len:7 0 ] "zero");
  ignore (Classifier.add c [ f ] "top");
  checkb "classifier routes on the full 7 bytes" true (Classifier.classify c h = Some "top")

let test_field_out_of_range () =
  let h = Bytes.make 4 'x' in
  checkb "read past end" true (Pattern.read_field h (Pattern.field ~offset:3 ~len:2 0) = None);
  checkb "pattern past end fails" false
    (Pattern.matches [ Pattern.field ~offset:3 ~len:2 0 ] h);
  checkb "empty pattern matches anything" true (Pattern.matches [] h)

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)
(* ------------------------------------------------------------------ *)

let fld ~off ~len v = Pattern.field ~offset:off ~len v

let test_classifier_basic () =
  let c = Classifier.create () in
  ignore (Classifier.add c [ fld ~off:0 ~len:1 1 ] "one");
  ignore (Classifier.add c [ fld ~off:0 ~len:1 2 ] "two");
  checkb "routes to one" true (Classifier.classify c (header_of_string "\x01") = Some "one");
  checkb "routes to two" true (Classifier.classify c (header_of_string "\x02") = Some "two");
  checkb "no match" true (Classifier.classify c (header_of_string "\x03") = None);
  let s = Classifier.stats c in
  checki "classifications" 3 s.Classifier.classifications;
  checki "matches" 2 s.Classifier.matches

let test_classifier_priority () =
  let c = Classifier.create () in
  (* overlapping patterns: first installed wins *)
  ignore (Classifier.add c [ fld ~off:0 ~len:1 7 ] "general");
  ignore (Classifier.add c [ fld ~off:0 ~len:1 7; fld ~off:1 ~len:1 9 ] "specific");
  checkb "earlier pattern has priority" true
    (Classifier.classify c (header_of_string "\x07\x09") = Some "general")

let test_classifier_priority_other_order () =
  let c = Classifier.create () in
  ignore (Classifier.add c [ fld ~off:0 ~len:1 7; fld ~off:1 ~len:1 9 ] "specific");
  ignore (Classifier.add c [ fld ~off:0 ~len:1 7 ] "general");
  checkb "specific wins when installed first" true
    (Classifier.classify c (header_of_string "\x07\x09") = Some "specific");
  checkb "general still catches others" true
    (Classifier.classify c (header_of_string "\x07\x01") = Some "general")

let test_classifier_prefix_sharing () =
  let c = Classifier.create () in
  let prefix = [ fld ~off:0 ~len:2 0xC1A0; fld ~off:2 ~len:1 1 ] in
  for k = 0 to 9 do
    ignore (Classifier.add c (prefix @ [ fld ~off:4 ~len:1 k ]) k)
  done;
  (* shared prefix: 2 edges + 10 leaf edges, not 10 * 3 *)
  checki "edges shared" 12 (Classifier.edges c);
  checki "patterns live" 10 (Classifier.patterns c)

let test_classifier_remove () =
  let c = Classifier.create () in
  let h = Classifier.add c [ fld ~off:0 ~len:1 5 ] "x" in
  ignore (Classifier.add c [ fld ~off:0 ~len:1 5; fld ~off:1 ~len:1 6 ] "y");
  checkb "x active" true (Classifier.classify c (header_of_string "\x05\x06") = Some "x");
  Classifier.remove c h;
  checkb "falls through to y" true (Classifier.classify c (header_of_string "\x05\x06") = Some "y");
  checki "one live pattern" 1 (Classifier.patterns c);
  Classifier.remove c h (* idempotent *);
  checki "still one" 1 (Classifier.patterns c)

let test_classifier_empty_pattern () =
  let c = Classifier.create () in
  ignore (Classifier.add c [] "default");
  ignore (Classifier.add c [ fld ~off:0 ~len:1 1 ] "specific");
  checkb "empty matches everything" true
    (Classifier.classify c (header_of_string "\x09") = Some "default");
  checkb "empty wins by priority" true
    (Classifier.classify c (header_of_string "\x01") = Some "default")

let test_classifier_backtracking () =
  let c = Classifier.create () in
  (* two patterns sharing the first field value but stored as separate
     branches because the field specs differ in length *)
  ignore (Classifier.add c [ fld ~off:0 ~len:2 0x0101; fld ~off:2 ~len:1 0xAA ] "long");
  ignore (Classifier.add c [ fld ~off:0 ~len:1 0x01; fld ~off:2 ~len:1 0xBB ] "short");
  checkb "second branch reachable" true
    (Classifier.classify c (header_of_string "\x01\x01\xBB") = Some "short")

let test_classifier_masked_fields () =
  let c = Classifier.create () in
  (* match any header whose first byte has the high bit set *)
  ignore (Classifier.add c [ Pattern.field ~offset:0 ~len:1 ~mask:0x80 0x80 ] "high");
  checkb "0xFF matches" true (Classifier.classify c (header_of_string "\xFF") = Some "high");
  checkb "0x80 matches" true (Classifier.classify c (header_of_string "\x80") = Some "high");
  checkb "0x7F does not" true (Classifier.classify c (header_of_string "\x7F") = None)

let test_classifier_remove_keeps_siblings () =
  let c = Classifier.create () in
  let prefix = fld ~off:0 ~len:1 9 in
  let h1 = Classifier.add c [ prefix; fld ~off:1 ~len:1 1 ] "one" in
  ignore (Classifier.add c [ prefix; fld ~off:1 ~len:1 2 ] "two");
  Classifier.remove c h1;
  checkb "sibling survives shared prefix" true
    (Classifier.classify c (header_of_string "\x09\x02") = Some "two");
  checkb "removed gone" true (Classifier.classify c (header_of_string "\x09\x01") = None)

let test_classifier_tombstone_sweep () =
  let c = Classifier.create () in
  let prefix = fld ~off:0 ~len:1 4 in
  let h1 = Classifier.add c [ prefix; fld ~off:1 ~len:1 1 ] "one" in
  let h2 = Classifier.add c [ prefix; fld ~off:1 ~len:1 1 ] "one-shadow" in
  let h3 = Classifier.add c [ prefix; fld ~off:1 ~len:1 2 ] "two" in
  checki "accepts = live patterns" 3 (Classifier.accept_entries c);
  Classifier.remove c h1;
  Classifier.remove c h3;
  (* removal sweeps the accept entries out of the DAG — no tombstones *)
  checki "dead accepts pruned" 1 (Classifier.accept_entries c);
  checki "one live" 1 (Classifier.patterns c);
  checkb "shadow now wins" true
    (Classifier.classify c (header_of_string "\x04\x01") = Some "one-shadow");
  Classifier.remove c h1 (* idempotent: must not disturb h2's entry *);
  checki "re-removal no-op" 1 (Classifier.accept_entries c);
  Classifier.remove c h2;
  checki "empty" 0 (Classifier.accept_entries c);
  (* install/uninstall churn leaves no residue *)
  for i = 0 to 99 do
    let h = Classifier.add c [ prefix; fld ~off:1 ~len:1 (i mod 7) ] "churn" in
    Classifier.remove c h
  done;
  checki "churn leaves nothing" 0 (Classifier.accept_entries c)

let test_classifier_indexed_probes () =
  (* 256 sibling patterns on one field spec: classification must probe the
     header once per spec (O(depth)), not once per pattern *)
  let c = Classifier.create () in
  for v = 0 to 255 do
    ignore (Classifier.add c [ fld ~off:0 ~len:2 v; fld ~off:2 ~len:1 1 ] v)
  done;
  let before = (Classifier.stats c).Classifier.probes in
  checkb "classifies" true (Classifier.classify c (header_of_string "\x00\xC8\x01") = Some 0xC8);
  let probes = (Classifier.stats c).Classifier.probes - before in
  checkb (Printf.sprintf "probes bounded by depth (%d <= 4)" probes) true (probes <= 4)

(* the classification hot path's allocation contract: over the message
   layer's channel patterns, a warm classifier allocates nothing per lookup,
   matched or not *)
let test_classifier_no_alloc () =
  let module Wire = Cni_nic.Wire in
  let c = Classifier.create () in
  for channel = 0 to 63 do
    ignore (Classifier.add c (Wire.pattern_channel ~channel) channel)
  done;
  let header channel =
    Wire.encode
      { Wire.kind = 1; cacheable = false; has_data = false; src = 3; channel; obj = 0; aux = 0 }
  in
  (* channels 64..79 have no pattern *)
  let headers = Array.init 80 header in
  Array.iter (fun h -> ignore (Classifier.classify c h)) headers;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (Classifier.classify c headers.(i mod 80))
  done;
  let words = Gc.minor_words () -. before in
  (* a per-lookup allocation would cost >= 10k words; the epsilon absorbs
     the Gc.minor_words float boxes themselves *)
  if words > 64. then Alcotest.failf "10k warm classifications allocated %.0f minor words" words;
  checkb "still classifies" true (Classifier.classify c (header 42) = Some 42);
  checkb "unmatched channel" true (Classifier.classify c (header 70) = None)

(* property: the DAG classifier agrees with the naive linear matcher *)
let classifier_vs_naive =
  let gen_field =
    QCheck.Gen.(
      map3
        (fun off len v -> Pattern.field ~offset:off ~len:(1 + (len mod 2)) v)
        (int_bound 6) (int_bound 1) (int_bound 255))
  in
  let gen_pattern = QCheck.Gen.(list_size (int_range 0 3) gen_field) in
  let gen_setup =
    QCheck.Gen.(
      pair (list_size (int_range 1 8) gen_pattern) (list_size (int_range 1 20) (int_bound 255)))
  in
  QCheck.Test.make ~name:"DAG classifier = naive first-match" ~count:300
    (QCheck.make gen_setup)
    (fun (patterns, header_bytes) ->
      let header = Bytes.of_string (String.init (List.length header_bytes) (fun i ->
          Char.chr (List.nth header_bytes i))) in
      let c = Classifier.create () in
      List.iteri (fun i p -> ignore (Classifier.add c p i)) patterns;
      let naive =
        let rec go i = function
          | [] -> None
          | p :: rest -> if Pattern.matches p header then Some i else go (i + 1) rest
        in
        go 0 patterns
      in
      Classifier.classify c header = naive)

(* property: under random add/remove/classify sequences, the indexed DAG,
   the linear reference scan and an independent model (first alive pattern
   in insertion order) all agree — same match, same priority order *)
let classifier_vs_linear_ops =
  let gen_field =
    QCheck.Gen.(
      map3
        (fun off len v -> Pattern.field ~offset:off ~len:(1 + (len mod 2)) v)
        (int_bound 6) (int_bound 1) (int_bound 255))
  in
  let gen_pattern = QCheck.Gen.(list_size (int_range 0 3) gen_field) in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun p -> `Add p) gen_pattern);
          (2, map (fun j -> `Remove j) (int_bound 1000));
          (3, map (fun bs -> `Classify bs) (list_size (int_range 1 12) (int_bound 255)));
        ])
  in
  let gen_ops = QCheck.Gen.(list_size (int_range 1 40) gen_op) in
  QCheck.Test.make ~name:"indexed = linear under add/remove/classify" ~count:300
    (QCheck.make gen_ops)
    (fun ops ->
      let c = Classifier.create () in
      (* model: patterns in insertion order with an alive flag *)
      let model = ref [] (* (handle, pattern, action, alive ref), newest first *) in
      let next_action = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Add p ->
              let action = !next_action in
              incr next_action;
              let h = Classifier.add c p action in
              model := (h, p, action, ref true) :: !model;
              true
          | `Remove j ->
              (match !model with
              | [] -> ()
              | l ->
                  let h, _, _, alive = List.nth l (j mod List.length l) in
                  Classifier.remove c h;
                  alive := false);
              true
          | `Classify bs ->
              let header =
                Bytes.of_string
                  (String.init (List.length bs) (fun i -> Char.chr (List.nth bs i)))
              in
              let expected =
                List.fold_left
                  (fun acc (_, p, action, alive) ->
                    if !alive && Pattern.matches p header then Some action else acc)
                  None !model
                (* fold over newest-first: the last (oldest matching) wins,
                   which is exactly priority = insertion order *)
              in
              Classifier.classify c header = expected
              && Classifier.classify_linear c header = expected)
        ops
      && Classifier.accept_entries c = Classifier.patterns c)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let frame_cells ~vci ~tag bytes =
  let payload = Bytes.make bytes '\000' in
  Bytes.set payload 0 (Char.chr tag);
  Aal5.segment ~vpi:0 ~vci payload

let mk_dispatcher () =
  let c = Classifier.create () in
  ignore (Classifier.add c [ fld ~off:0 ~len:1 1 ] "app-1");
  ignore (Classifier.add c [ fld ~off:0 ~len:1 2 ] "app-2");
  Dispatcher.create c

let test_dispatcher_single_frame () =
  let d = mk_dispatcher () in
  let cells = frame_cells ~vci:10 ~tag:1 500 in
  let results = List.map (Dispatcher.on_cell d) cells in
  checkb "all cells to app-1" true (List.for_all (fun r -> r = Some "app-1") results);
  checki "binding released at last cell" 0 (Dispatcher.active_bindings d);
  let s = Dispatcher.stats d in
  checki "one first cell" 1 s.Dispatcher.first_cells;
  checki "continuations" (List.length cells - 1) s.Dispatcher.continuation_cells

let test_dispatcher_interleaved_vcs () =
  let d = mk_dispatcher () in
  let a = frame_cells ~vci:10 ~tag:1 300 in
  let b = frame_cells ~vci:11 ~tag:2 300 in
  (* interleave the two cell streams *)
  let rec weave xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | x :: xs, y :: ys -> x :: y :: weave xs ys
  in
  let results = List.map (Dispatcher.on_cell d) (weave a b) in
  let to_a = List.filter (fun r -> r = Some "app-1") results in
  let to_b = List.filter (fun r -> r = Some "app-2") results in
  checki "stream a complete" (List.length a) (List.length to_a);
  checki "stream b complete" (List.length b) (List.length to_b)

let test_dispatcher_poisoned_frame () =
  let d = mk_dispatcher () in
  let cells = frame_cells ~vci:10 ~tag:9 (* no pattern *) 300 in
  let results = List.map (Dispatcher.on_cell d) cells in
  checkb "whole frame unmatched" true (List.for_all (fun r -> r = None) results);
  checki "one unmatched frame" 1 (Dispatcher.stats d).Dispatcher.unmatched_frames;
  (* the next frame on the same VC classifies afresh *)
  let next = frame_cells ~vci:10 ~tag:1 100 in
  checkb "vc recovers" true (Dispatcher.on_cell d (List.hd next) = Some "app-1")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "pathfinder"
    [
      ( "pattern",
        [
          Alcotest.test_case "field validation" `Quick test_field_validation;
          Alcotest.test_case "matching semantics" `Quick test_field_matching;
          Alcotest.test_case "out-of-range reads" `Quick test_field_out_of_range;
          Alcotest.test_case "len 8 rejected" `Quick test_field_len_8_rejected;
          Alcotest.test_case "len 7 reads the top bit exactly" `Quick test_field_len_7_top_bit;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "basic routing" `Quick test_classifier_basic;
          Alcotest.test_case "priority = insertion order" `Quick test_classifier_priority;
          Alcotest.test_case "priority other order" `Quick test_classifier_priority_other_order;
          Alcotest.test_case "prefix sharing" `Quick test_classifier_prefix_sharing;
          Alcotest.test_case "pattern removal" `Quick test_classifier_remove;
          Alcotest.test_case "empty pattern" `Quick test_classifier_empty_pattern;
          Alcotest.test_case "backtracking" `Quick test_classifier_backtracking;
          Alcotest.test_case "masked fields" `Quick test_classifier_masked_fields;
          Alcotest.test_case "remove keeps siblings" `Quick test_classifier_remove_keeps_siblings;
          Alcotest.test_case "tombstone sweep" `Quick test_classifier_tombstone_sweep;
          Alcotest.test_case "indexed probe count" `Quick test_classifier_indexed_probes;
          Alcotest.test_case "warm classify is allocation-free" `Quick test_classifier_no_alloc;
          qc classifier_vs_naive;
          qc classifier_vs_linear_ops;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "single frame" `Quick test_dispatcher_single_frame;
          Alcotest.test_case "interleaved VCs" `Quick test_dispatcher_interleaved_vcs;
          Alcotest.test_case "poisoned frame" `Quick test_dispatcher_poisoned_frame;
        ] );
    ]
