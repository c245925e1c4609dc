(* Tests for the ATM interconnect: cells, CRC-32, AAL5 segmentation and
   reassembly, the banyan switch and the fabric timing model. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Params = Cni_machine.Params
module Cell = Cni_atm.Cell
module Crc32 = Cni_atm.Crc32
module Aal5 = Cni_atm.Aal5
module Switch = Cni_atm.Switch
module Topology = Cni_atm.Topology
module Fabric = Cni_atm.Fabric
module Faults = Cni_atm.Faults

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let p = Params.default

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

let test_cell_sizes () =
  checki "header" 5 Cell.header_bytes;
  checki "payload" 48 Cell.payload_bytes;
  checki "total" 53 Cell.total_bytes

let test_cell_roundtrip () =
  let payload = Bytes.init 48 (fun i -> Char.chr (i * 5 mod 256)) in
  let c = Cell.make ~vpi:3 ~vci:0xBEEF ~last:true ~clp:true payload in
  let c' = Cell.decode (Cell.encode c) in
  checki "vpi" 3 c'.Cell.header.Cell.vpi;
  checki "vci" 0xBEEF c'.Cell.header.Cell.vci;
  checkb "last" true c'.Cell.header.Cell.last;
  checkb "clp" true c'.Cell.header.Cell.clp;
  checkb "payload" true (Bytes.equal payload c'.Cell.payload)

let test_cell_validation () =
  let short = Bytes.create 47 in
  Alcotest.check_raises "short payload"
    (Invalid_argument "Cell.make: payload must be exactly 48 bytes") (fun () ->
      ignore (Cell.make ~vpi:0 ~vci:0 ~last:false short));
  let ok = Bytes.create 48 in
  Alcotest.check_raises "vci range" (Invalid_argument "Cell.make: vci out of range") (fun () ->
      ignore (Cell.make ~vpi:0 ~vci:0x10000 ~last:false ok));
  Alcotest.check_raises "decode length" (Invalid_argument "Cell.decode: need 53 bytes")
    (fun () -> ignore (Cell.decode (Bytes.create 52)))

let cell_roundtrip_qc =
  QCheck.Test.make ~name:"cell encode/decode roundtrip" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 0xFFFF) bool bool)
    (fun (vpi, vci, last, clp) ->
      let payload = Bytes.make 48 'z' in
      let c = Cell.make ~vpi ~vci ~last ~clp payload in
      let c' = Cell.decode (Cell.encode c) in
      c'.Cell.header = c.Cell.header && Bytes.equal c'.Cell.payload payload)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32_known_vector () =
  (* the classic check value: CRC-32("123456789") = 0xCBF43926 *)
  let b = Bytes.of_string "123456789" in
  check Alcotest.int32 "check value" 0xCBF43926l (Crc32.digest b ~pos:0 ~len:9)

let test_crc32_incremental () =
  let b = Bytes.of_string "hello world" in
  let whole = Crc32.digest b ~pos:0 ~len:11 in
  let part = Crc32.update Crc32.init b ~pos:0 ~len:5 in
  let part = Crc32.update part b ~pos:5 ~len:6 in
  check Alcotest.int32 "incremental = whole" whole (Crc32.finish part)

(* ------------------------------------------------------------------ *)
(* AAL5                                                                *)
(* ------------------------------------------------------------------ *)

let test_aal5_roundtrip () =
  let frame = Bytes.init 1000 (fun i -> Char.chr (i mod 251)) in
  let cells = Aal5.segment ~vpi:1 ~vci:42 frame in
  checki "cell count" (Aal5.cell_count 1000) (List.length cells);
  let r = Aal5.Reassembler.create () in
  let frames = List.filter_map (Aal5.Reassembler.push r) cells in
  (match frames with
  | [ f ] -> checkb "identical" true (Bytes.equal f frame)
  | _ -> Alcotest.fail "expected exactly one frame");
  checki "nothing pending" 0 (Aal5.Reassembler.pending_cells r)

let test_aal5_empty_frame () =
  let cells = Aal5.segment ~vpi:0 ~vci:1 Bytes.empty in
  checki "one cell" 1 (List.length cells);
  let r = Aal5.Reassembler.create () in
  match List.filter_map (Aal5.Reassembler.push r) cells with
  | [ f ] -> checki "zero length" 0 (Bytes.length f)
  | _ -> Alcotest.fail "expected one frame"

let test_aal5_last_bit () =
  let frame = Bytes.make 100 'a' in
  let cells = Aal5.segment ~vpi:0 ~vci:1 frame in
  let rec split = function
    | [] -> Alcotest.fail "no cells"
    | [ last ] -> ([], last)
    | c :: rest ->
        let init, last = split rest in
        (c :: init, last)
  in
  let init, last = split cells in
  List.iter (fun (c : Cell.t) -> checkb "not last" false c.Cell.header.Cell.last) init;
  checkb "final cell marked" true last.Cell.header.Cell.last

let test_aal5_corruption_detected () =
  let frame = Bytes.make 100 'q' in
  let cells = Aal5.segment ~vpi:0 ~vci:1 frame in
  let corrupted =
    List.mapi
      (fun i (c : Cell.t) ->
        if i = 0 then begin
          let pl = Bytes.copy c.Cell.payload in
          Bytes.set pl 10 '!';
          Cell.make ~vpi:0 ~vci:1 ~last:c.Cell.header.Cell.last pl
        end
        else c)
      cells
  in
  let r = Aal5.Reassembler.create () in
  Alcotest.check_raises "CRC mismatch" (Aal5.Reassembly_error "CRC mismatch") (fun () ->
      List.iter (fun c -> ignore (Aal5.Reassembler.push r c)) corrupted)

let test_aal5_push_result_crc_mismatch () =
  let frame = Bytes.make 100 'q' in
  let corrupted =
    List.mapi
      (fun i (c : Cell.t) ->
        if i = 0 then begin
          let pl = Bytes.copy c.Cell.payload in
          Bytes.set pl 10 '!';
          Cell.make ~vpi:0 ~vci:1 ~last:c.Cell.header.Cell.last pl
        end
        else c)
      (Aal5.segment ~vpi:0 ~vci:1 frame)
  in
  let r = Aal5.Reassembler.create () in
  let results = List.map (Aal5.Reassembler.push_result r) corrupted in
  (match List.rev results with
  | Error Aal5.Crc_mismatch :: mid ->
      List.iter (fun x -> checkb "mid-frame cells are Ok None" true (x = Ok None)) mid
  | _ -> Alcotest.fail "expected Error Crc_mismatch on the last cell");
  checki "error counted" 1 (Aal5.Reassembler.errors r);
  checki "no frame counted" 0 (Aal5.Reassembler.frames r);
  checki "buffer drained" 0 (Aal5.Reassembler.pending_cells r);
  (* the circuit stays usable: the next (good) frame reassembles *)
  let good = Bytes.make 64 'g' in
  let out =
    List.filter_map
      (fun c ->
        match Aal5.Reassembler.push_result r c with Ok f -> f | Error _ -> None)
      (Aal5.segment ~vpi:0 ~vci:1 good)
  in
  (match out with
  | [ f ] -> checkb "next frame intact" true (Bytes.equal f good)
  | _ -> Alcotest.fail "expected the next frame");
  checki "frame counted" 1 (Aal5.Reassembler.frames r)

let test_aal5_push_result_bad_length () =
  (* corrupt the trailer's length field (last 8 bytes of the final cell's
     payload, before padding adjustments: bytes 40-43 hold the length) *)
  let frame = Bytes.make 40 'L' in
  let cells = Aal5.segment ~vpi:0 ~vci:2 frame in
  let mangled =
    List.map
      (fun (c : Cell.t) ->
        if c.Cell.header.Cell.last then begin
          let pl = Bytes.copy c.Cell.payload in
          Bytes.set_int32_be pl 40 0x7FFFFFFFl;
          Cell.make ~vpi:0 ~vci:2 ~last:true pl
        end
        else c)
      cells
  in
  let r = Aal5.Reassembler.create () in
  let last_result = List.fold_left (fun _ c -> Aal5.Reassembler.push_result r c) (Ok None) mangled in
  checkb "bad length detected" true (last_result = Error Aal5.Bad_length);
  checki "error counted" 1 (Aal5.Reassembler.errors r)

let test_aal5_truncated_trailer () =
  (* a hand-built final cell shorter than the 8-byte trailer: only possible
     with unrestricted cell sizes (Table 5 variant), where a frame can end
     in a cell carrying fewer than 8 bytes *)
  let short : Cell.t =
    { Cell.header = { Cell.vpi = 0; vci = 3; last = true; clp = false };
      payload = Bytes.create 4 }
  in
  let r = Aal5.Reassembler.create () in
  checkb "truncated detected" true (Aal5.Reassembler.push_result r short = Error Aal5.Truncated);
  checki "error counted" 1 (Aal5.Reassembler.errors r);
  checki "buffer drained" 0 (Aal5.Reassembler.pending_cells r)

let test_aal5_demux_interleaved_vcs () =
  let fa = Bytes.make 150 'a' and fb = Bytes.make 90 'b' in
  let ca = Aal5.segment ~vpi:0 ~vci:10 fa and cb = Aal5.segment ~vpi:0 ~vci:20 fb in
  (* interleave the two circuits' cells cell-by-cell *)
  let rec interleave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: interleave xs ys
  in
  let d = Aal5.Demux.create () in
  let out = List.filter_map (fun c ->
      match Aal5.Demux.push_result d c with Ok f -> f | Error _ -> None)
      (interleave ca cb)
  in
  (match List.sort compare (List.map fst out) with
  | [ 10; 20 ] -> ()
  | _ -> Alcotest.fail "expected one frame per circuit");
  List.iter
    (fun (vci, f) ->
      checkb "frame routed to its circuit intact" true
        (Bytes.equal f (if vci = 10 then fa else fb)))
    out;
  checki "vc 10 frames" 1 (Aal5.Demux.frames d ~vci:10);
  checki "vc 20 frames" 1 (Aal5.Demux.frames d ~vci:20);
  checki "vc 10 errors" 0 (Aal5.Demux.errors d ~vci:10);
  checki "nothing pending on 10" 0 (Aal5.Demux.pending_cells d ~vci:10)

let test_aal5_demux_error_isolated_to_vc () =
  (* a corrupted frame on one circuit must not disturb another circuit's
     in-flight frame *)
  let fa = Bytes.make 150 'a' and fb = Bytes.make 90 'b' in
  let ca =
    List.mapi
      (fun i (c : Cell.t) ->
        if i = 0 then begin
          let pl = Bytes.copy c.Cell.payload in
          Bytes.set pl 0 'X';
          Cell.make ~vpi:0 ~vci:10 ~last:c.Cell.header.Cell.last pl
        end
        else c)
      (Aal5.segment ~vpi:0 ~vci:10 fa)
  in
  let cb = Aal5.segment ~vpi:0 ~vci:20 fb in
  let rec interleave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: interleave xs ys
  in
  let d = Aal5.Demux.create () in
  let good = ref [] and bad = ref [] in
  List.iter
    (fun c ->
      match Aal5.Demux.push_result d c with
      | Ok (Some (vci, f)) -> good := (vci, f) :: !good
      | Ok None -> ()
      | Error (vci, e) -> bad := (vci, e) :: !bad)
    (interleave ca cb);
  checkb "circuit 10 rejected" true (!bad = [ (10, Aal5.Crc_mismatch) ]);
  (match !good with
  | [ (20, f) ] -> checkb "circuit 20 unharmed" true (Bytes.equal f fb)
  | _ -> Alcotest.fail "expected circuit 20's frame");
  checki "per-VC error counter" 1 (Aal5.Demux.errors d ~vci:10);
  checki "clean circuit has no errors" 0 (Aal5.Demux.errors d ~vci:20)

let aal5_roundtrip_qc =
  QCheck.Test.make ~name:"AAL5 roundtrip for arbitrary frames" ~count:100
    QCheck.(string_of_size (Gen.int_bound 3000))
    (fun s ->
      let frame = Bytes.of_string s in
      let cells = Aal5.segment ~vpi:0 ~vci:9 frame in
      let r = Aal5.Reassembler.create () in
      match List.filter_map (Aal5.Reassembler.push r) cells with
      | [ f ] -> Bytes.equal f frame
      | _ -> false)

let aal5_cell_count_qc =
  QCheck.Test.make ~name:"cell_count covers payload + trailer" ~count:200
    QCheck.(int_bound 10_000)
    (fun len ->
      let cells = Aal5.cell_count len in
      (cells * 48) >= len + 8 && ((cells - 1) * 48) < len + 8 || (len = 0 && cells = 1))

(* The fabric's wire formula against the byte-accurate twin: a frame of
   any size up to 64 KB costs the cells AAL5 segments it into. Half the
   draws sit within a byte of a cell boundary. *)
let fabric_cells_match_aal5_qc =
  let near_boundary =
    QCheck.Gen.(map2 (fun k d -> max 0 ((48 * k) - 8 + d)) (int_bound 1366) (int_range (-1) 1))
  in
  QCheck.Test.make ~name:"Fabric.packet_cells = Aal5.segment cells" ~count:300
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(oneof [ int_bound 65_536; near_boundary ]))
    (fun len ->
      let header = min len 16 in
      let pkt =
        { Fabric.src = 0; dst = 1; vci = 0; header = Bytes.create header;
          body_bytes = len - header; payload = (); crc_ok = true }
      in
      Fabric.packet_cells Params.default pkt
      = List.length (Aal5.segment ~vpi:0 ~vci:0 (Bytes.create len)))

let test_aal5_pending_cells () =
  let frame = Bytes.make 200 'p' in
  let cells = Aal5.segment ~vpi:0 ~vci:3 frame in
  let r = Aal5.Reassembler.create () in
  (match cells with
  | first :: _ ->
      ignore (Aal5.Reassembler.push r first);
      checki "one pending" 1 (Aal5.Reassembler.pending_cells r)
  | [] -> Alcotest.fail "no cells");
  List.iteri (fun i c -> if i > 0 then ignore (Aal5.Reassembler.push r c)) cells;
  checki "drained after last" 0 (Aal5.Reassembler.pending_cells r)

(* ------------------------------------------------------------------ *)
(* Switch                                                              *)
(* ------------------------------------------------------------------ *)

let test_switch_structure () =
  let sw = Switch.create ~ports:32 in
  checki "ports" 32 (Switch.ports sw);
  checki "stages" 5 (Switch.stages sw);
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Switch.create: ports must be a power of two >= 2") (fun () ->
      ignore (Switch.create ~ports:24))

let test_switch_routes_reach_destination () =
  let sw = Switch.create ~ports:32 in
  for src = 0 to 31 do
    for dst = 0 to 31 do
      let r = Switch.route sw ~src ~dst in
      checki "route ends at destination" dst r.(Array.length r - 1)
    done
  done

let test_switch_conflicts () =
  let sw = Switch.create ~ports:8 in
  (* same destination always conflicts at the last stage *)
  checkb "same dst conflicts" true (Switch.conflict sw (0, 5) (1, 5));
  (* identity permutation routes are pairwise disjoint *)
  checki "identity non-blocking" 0
    (Switch.conflicts_in_permutation sw (Array.init 8 (fun i -> i)));
  (* the classic blocking example: bit-reversal style permutations block *)
  checkb "some permutation blocks" true
    (Switch.conflicts_in_permutation sw [| 0; 4; 1; 5; 2; 6; 3; 7 |] > 0)

let switch_conflict_symmetric =
  QCheck.Test.make ~name:"conflict is symmetric" ~count:300
    QCheck.(quad (int_bound 31) (int_bound 31) (int_bound 31) (int_bound 31))
    (fun (a, b, c, d) ->
      let sw = Switch.create ~ports:32 in
      Switch.conflict sw (a, b) (c, d) = Switch.conflict sw (c, d) (a, b))

(* Each stage of an omega route perfect-shuffles the incoming wire and then
   exchanges (at most) the bottom bit, setting it to the routed destination
   bit — so consecutive hops may differ only in that exchanged bit, and the
   final hop must land on [dst]. *)
let switch_route_exchanged_bit =
  QCheck.Test.make ~name:"route hops differ only in the exchanged bit" ~count:500
    QCheck.(pair (int_bound 31) (int_bound 31))
    (fun (src, dst) ->
      let sw = Switch.create ~ports:32 in
      let k = Switch.stages sw in
      let mask = Switch.ports sw - 1 in
      let r = Switch.route sw ~src ~dst in
      let ok = ref (Array.length r = k && r.(k - 1) = dst) in
      let prev = ref src in
      Array.iteri
        (fun s w ->
          let shuffled = ((!prev lsl 1) lor (!prev lsr (k - 1))) land mask in
          (* differs from the shuffled wire only in bit 0... *)
          if (w lxor shuffled) land lnot 1 <> 0 then ok := false;
          (* ...and that bit is the routed destination bit for this stage *)
          if w land 1 <> (dst lsr (k - 1 - s)) land 1 then ok := false;
          prev := w)
        r;
      !ok)

let switch_conflict_reflexive =
  QCheck.Test.make ~name:"conflict is reflexive on shared stages" ~count:300
    QCheck.(triple (int_bound 31) (int_bound 31) (int_bound 31))
    (fun (s1, s2, d) ->
      let sw = Switch.create ~ports:32 in
      (* a route always conflicts with itself, and any two routes to the
         same destination share at least the final-stage wire *)
      Switch.conflict sw (s1, d) (s1, d) && Switch.conflict sw (s1, d) (s2, d))

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_single () =
  let t = Topology.single ~nodes:8 in
  checki "one switch" 1 (Topology.switch_count t);
  checki "ports = nodes" 8 (Topology.switch_ports t 0);
  checki "links = host links" 8 (Topology.link_count t);
  checki "max hops" 1 (Topology.max_hops t);
  (match Topology.route t ~src:2 ~dst:5 with
  | [| { Topology.h_switch = 0; h_in = 2; h_out = 5 } |] -> ()
  | _ -> Alcotest.fail "single route should be one hop through switch 0");
  Alcotest.check_raises "src = dst" (Invalid_argument "Topology.route: src = dst") (fun () ->
      ignore (Topology.route t ~src:3 ~dst:3))

(* The fabric's allocation-free walk against the reference routes: for
   every (src, dst) pair, [Walk] visits exactly [Topology.route]'s hops, and
   stepping [Switch.next_wire] through each hop's switch gives exactly
   [Switch.route]'s wires. The tori include 1- and 2-wide rings and even
   rings, where the two ways round tie. *)
let test_walk_matches_route () =
  let shapes =
    [ ("single 16", Topology.single ~nodes:16) ]
    @ List.concat_map
        (fun radix ->
          List.map
            (fun nodes ->
              ( Printf.sprintf "fat-tree:%d on %d" radix nodes,
                Topology.fat_tree ~leaf_radix:radix ~nodes () ))
            [ 16; 64; 100 ])
        [ 4; 8; 16 ]
    @ List.map
        (fun (nodes, dims) ->
          ( (match dims with
            | None -> Printf.sprintf "torus on %d" nodes
            | Some (x, y, z) -> Printf.sprintf "torus:%dx%dx%d" x y z),
            Topology.torus ?dims ~nodes () ))
        [
          (8, None); (8, Some (2, 2, 2)); (8, Some (1, 2, 4)); (8, Some (8, 1, 1));
          (27, None); (27, Some (1, 3, 9)); (64, None); (64, Some (2, 4, 8));
          (100, None); (100, Some (1, 10, 10)); (100, Some (2, 5, 10));
        ]
  in
  List.iter
    (fun (name, t) ->
      let n = Topology.nodes t in
      let w = Topology.Walk.create t in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            Topology.Walk.start w ~src ~dst;
            let more = ref true in
            Array.iteri
              (fun i { Topology.h_switch; h_in; h_out } ->
                let fail what = Alcotest.failf "%s: %d->%d hop %d: %s" name src dst i what in
                if not !more then fail "the walk ended early";
                if
                  (Topology.Walk.switch w, Topology.Walk.in_port w, Topology.Walk.out_port w)
                  <> (h_switch, h_in, h_out)
                then
                  fail
                    (Printf.sprintf "walked (%d, %d, %d), route has (%d, %d, %d)"
                       (Topology.Walk.switch w) (Topology.Walk.in_port w)
                       (Topology.Walk.out_port w) h_switch h_in h_out);
                let m = Topology.switch_model t h_switch in
                let wire = ref h_in in
                Array.iteri
                  (fun stage expected ->
                    wire := Switch.next_wire m ~stage ~wire:!wire ~dst:h_out;
                    if !wire <> expected then
                      fail (Printf.sprintf "stage %d wire %d, route has %d" stage !wire expected))
                  (Switch.route m ~src:h_in ~dst:h_out);
                more := Topology.Walk.next w)
              (Topology.route t ~src ~dst);
            if !more then Alcotest.failf "%s: %d->%d walks past the route" name src dst
          end
        done
      done)
    shapes

let test_topology_fat_tree_structure () =
  (* 64 nodes, radix 16: 8 hosts per leaf -> 8 leaves, 8 spines *)
  let t = Topology.fat_tree ~leaf_radix:16 ~nodes:64 () in
  checki "switches = leaves + spines" 16 (Topology.switch_count t);
  checki "leaf ports = down + up" 16 (Topology.switch_ports t 0);
  checki "spine ports = one per leaf" 8 (Topology.switch_ports t 8);
  checki "links = hosts + leaf-spine mesh" (64 + (8 * 8)) (Topology.link_count t);
  checki "max hops" 3 (Topology.max_hops t);
  (* same-leaf traffic never leaves the leaf; cross-leaf goes up-over-down *)
  checki "same leaf is one hop" 1 (Topology.hops t ~src:0 ~dst:7);
  checki "cross leaf is three hops" 3 (Topology.hops t ~src:0 ~dst:63);
  let r = Topology.route t ~src:0 ~dst:63 in
  checki "starts at src leaf" 0 r.(0).Topology.h_switch;
  checkb "middle hop is a spine" true (r.(1).Topology.h_switch >= 8);
  checki "ends at dst leaf" 7 r.(2).Topology.h_switch;
  checki "delivered on dst host port" (63 mod 8) r.(2).Topology.h_out

let test_topology_fat_tree_reachability () =
  let t = Topology.fat_tree ~leaf_radix:4 ~nodes:8 () in
  for src = 0 to 7 do
    for dst = 0 to 7 do
      if src <> dst then begin
        let r = Topology.route t ~src ~dst in
        checkb "within diameter" true (Array.length r <= Topology.max_hops t);
        let final = r.(Array.length r - 1) in
        (* the last hop leaves on the destination's own leaf port *)
        checki "lands on dst leaf" (dst / 2) final.Topology.h_switch;
        checki "lands on dst port" (dst mod 2) final.Topology.h_out
      end
    done
  done

let test_topology_torus_structure () =
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "auto dims 64" (4, 4, 4) (Topology.auto_dims 64);
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "auto dims 12" (2, 2, 3) (Topology.auto_dims 12);
  let t = Topology.torus ~nodes:64 () in
  checki "router per node" 64 (Topology.switch_count t);
  checki "host + 6 ring ports" 7 (Topology.switch_ports t 0);
  checki "links = hosts + 3 rings" (64 + (3 * 64)) (Topology.link_count t);
  checki "diameter hops" (1 + 2 + 2 + 2) (Topology.max_hops t)

let test_topology_torus_dimension_order () =
  let t = Topology.torus ~dims:(4, 4, 4) ~nodes:64 () in
  (* dimension-order routing is deadlock-free because corrections never go
     back to an earlier dimension: the port used at each hop must belong to
     a dimension >= the previous hop's, and each route ends on the
     destination's host port *)
  let dim_of_port port = if port = 0 then 3 else (port - 1) / 2 in
  for src = 0 to 63 do
    for dst = 0 to 63 do
      if src <> dst then begin
        let r = Topology.route t ~src ~dst in
        checkb "within diameter" true (Array.length r <= Topology.max_hops t);
        let final = r.(Array.length r - 1) in
        checki "ends at dst router" dst final.Topology.h_switch;
        checki "delivered on host port" 0 final.Topology.h_out;
        let last_dim = ref (-1) in
        Array.iter
          (fun { Topology.h_out; _ } ->
            let d = dim_of_port h_out in
            checkb "dimension order is monotone" true (d >= !last_dim);
            last_dim := d)
          r
      end
    done
  done;
  (* shorter way around the ring: 0 -> 3 in x is one -x hop, not three +x *)
  checki "wraparound is used" 2 (Topology.hops t ~src:0 ~dst:3)

let test_topology_validate () =
  let err k ~nodes =
    match Topology.validate k ~nodes with Ok () -> Alcotest.fail "expected error" | Error m -> m
  in
  checkb "odd radix rejected" true
    (err (Topology.Fat_tree { leaf_radix = 7 }) ~nodes:8 <> "");
  checkb "bad torus volume rejected" true
    (err (Topology.Torus { dims = Some (4, 4, 4) }) ~nodes:60 <> "");
  checkb "non-positive nodes rejected" true (err Topology.Single ~nodes:0 <> "");
  (match Topology.validate (Topology.Torus { dims = None }) ~nodes:60 with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("auto dims should fit any count: " ^ m));
  Alcotest.check_raises "of_kind raises on invalid combination"
    (Invalid_argument "Topology: torus 4x4x4 holds 64 nodes, cluster has 60") (fun () ->
      ignore (Topology.of_kind (Topology.Torus { dims = Some (4, 4, 4) }) ~nodes:60))

let test_topology_kind_strings () =
  let roundtrip k =
    match Topology.kind_of_string (Topology.kind_to_string k) with
    | Ok k' -> check (Alcotest.string) "roundtrip" (Topology.kind_to_string k) (Topology.kind_to_string k')
    | Error m -> Alcotest.fail m
  in
  roundtrip Topology.Single;
  roundtrip (Topology.Fat_tree { leaf_radix = 8 });
  roundtrip (Topology.Torus { dims = Some (2, 4, 8) });
  (match Topology.kind_of_string "fat-tree" with
  | Ok (Topology.Fat_tree { leaf_radix = 16 }) -> ()
  | _ -> Alcotest.fail "bare fat-tree should default to radix 16");
  match Topology.kind_of_string "gibberish" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "gibberish should be rejected"

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)
(* ------------------------------------------------------------------ *)

let mk_packet ~src ~dst ~bytes payload =
  {
    Fabric.src;
    dst;
    vci = src;
    header = Bytes.make 16 'h';
    body_bytes = bytes - 16;
    payload;
    crc_ok = true;
  }

let test_fabric_delivery_and_latency () =
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:4 in
  let arrival = ref Time.zero in
  Fabric.set_receiver fab ~node:2 (fun _ -> arrival := Engine.now eng);
  Fabric.send fab (mk_packet ~src:0 ~dst:2 ~bytes:64 "hello");
  Engine.run eng;
  let expected = Fabric.min_latency p ~bytes:64 in
  checki "uncontended latency = min_latency" (Time.to_ps expected) (Time.to_ps !arrival)

let test_fabric_wire_accounting () =
  let pkt = mk_packet ~src:0 ~dst:1 ~bytes:100 () in
  (* 100 + 8 trailer = 108 -> 3 cells -> 159 wire bytes *)
  checki "cells" 3 (Fabric.packet_cells p pkt);
  checki "wire bytes" (3 * 53) (Fabric.wire_bytes p pkt);
  let unrestricted = { p with Params.cell_payload_bytes = 1 lsl 26 } in
  checki "unrestricted single cell" 1 (Fabric.packet_cells unrestricted pkt);
  checki "unrestricted wire = payload+trailer+header" (100 + 8 + 5)
    (Fabric.wire_bytes unrestricted pkt)

let test_fabric_fifo_per_pair () =
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:2 in
  let got = ref [] in
  Fabric.set_receiver fab ~node:1 (fun pkt -> got := pkt.Fabric.payload :: !got);
  for i = 1 to 5 do
    Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:64 i)
  done;
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_fabric_ingress_contention () =
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:3 in
  let arrivals = ref [] in
  Fabric.set_receiver fab ~node:2 (fun pkt ->
      arrivals := (pkt.Fabric.src, Engine.now eng) :: !arrivals);
  (* two senders, one destination: receptions must not overlap *)
  Fabric.send fab (mk_packet ~src:0 ~dst:2 ~bytes:4096 ());
  Fabric.send fab (mk_packet ~src:1 ~dst:2 ~bytes:4096 ());
  Engine.run eng;
  match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] ->
      let ser = Time.to_ps (Fabric.min_latency p ~bytes:4096) in
      checkb "second delayed by contention" true (Time.to_ps t2 - Time.to_ps t1 > ser / 2)
  | _ -> Alcotest.fail "expected two arrivals"

let test_fabric_rejects_bad_addresses () =
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:2 in
  Alcotest.check_raises "src = dst" (Invalid_argument "Fabric.send: src = dst") (fun () ->
      Fabric.send fab (mk_packet ~src:1 ~dst:1 ~bytes:64 ()));
  Alcotest.check_raises "dst out of range" (Invalid_argument "Fabric.send: dst out of range")
    (fun () -> Fabric.send fab (mk_packet ~src:0 ~dst:5 ~bytes:64 ()));
  checki "rejected frames keep no record" 0 (Fabric.frames_in_flight fab)

let test_fabric_min_latency_monotone () =
  let prev = ref Time.zero in
  List.iter
    (fun b ->
      let l = Fabric.min_latency p ~bytes:b in
      checkb "monotone in size" true (l >= !prev);
      prev := l)
    [ 0; 64; 512; 2048; 8192 ]

let test_fabric_stats () =
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:2 in
  Fabric.set_receiver fab ~node:1 (fun _ -> ());
  Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:100 ());
  Engine.run eng;
  let s = Fabric.stats fab in
  checki "packets" 1 s.Fabric.packets;
  checki "cells" 3 s.Fabric.cells;
  checki "wire bytes" 159 s.Fabric.wire_bytes;
  checki "dropped" 0 s.Fabric.dropped

let test_fabric_subcell_wire () =
  (* 32 + 8 trailer = 40 bytes fits one 48-byte cell: the frame still burns
     a whole 53-byte cell on the wire, exactly like packet_cells says *)
  let pkt = mk_packet ~src:0 ~dst:1 ~bytes:32 () in
  checki "one cell" 1 (Fabric.packet_cells p pkt);
  checki "sub-cell frame charges a full cell" 53 (Fabric.wire_bytes p pkt);
  checki "helper agrees" 53 (Fabric.frame_wire_bytes p ~bytes:32);
  (* min_latency is built from the same helper: serialising 53 wire bytes *)
  let expected =
    Time.(
      Params.wire_time p ~bytes:53 + p.Params.switch_latency + (p.Params.link_latency * 2))
  in
  checki "min_latency uses the shared formula" (Time.to_ps expected)
    (Time.to_ps (Fabric.min_latency p ~bytes:32))

let test_fabric_stats_split () =
  (* a clean run: offered = on-wire = delivered *)
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:2 in
  Fabric.set_receiver fab ~node:1 (fun _ -> ());
  Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:100 ());
  Engine.run eng;
  let s = Fabric.stats fab in
  checki "offered" 1 s.Fabric.offered_packets;
  checki "on wire" 1 s.Fabric.packets;
  checki "delivered" 1 s.Fabric.delivered_packets;
  checki "offered wire bytes" s.Fabric.wire_bytes s.Fabric.offered_wire_bytes;
  checki "delivered wire bytes" s.Fabric.wire_bytes s.Fabric.delivered_wire_bytes;
  (* a crashed source offers but never transmits *)
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:2 in
  Fabric.set_receiver fab ~node:1 (fun _ -> ());
  Fabric.set_node_down fab ~node:0 true;
  Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:100 ());
  Engine.run eng;
  let s = Fabric.stats fab in
  checki "crashed source still offers" 1 s.Fabric.offered_packets;
  checki "nothing on the wire" 0 s.Fabric.packets;
  checki "nothing delivered" 0 s.Fabric.delivered_packets;
  checki "counted as crash drop" 1 (Fabric.crash_drops fab ~node:0);
  (* a mid-flight frame drop is on the wire but not delivered *)
  let eng = Engine.create () in
  let fab =
    Fabric.create eng p ~faults:{ Faults.none with Faults.frame_drop = 1.0 } ~nodes:2
  in
  Fabric.set_receiver fab ~node:1 (fun _ -> ());
  Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:100 ());
  Engine.run eng;
  let s = Fabric.stats fab in
  checki "offered" 1 s.Fabric.offered_packets;
  checki "on the wire" 1 s.Fabric.packets;
  checki "destroyed before delivery" 0 s.Fabric.delivered_packets

(* Regression for the crash/link-down race: liveness used to be checked only
   when the last bit arrived (eta), but a frame queued behind a busy ingress
   port is delivered later (finish) — a node crashing in between still
   received it. *)
let test_fabric_crash_during_ingress_queue () =
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:3 in
  let got = ref [] in
  Fabric.set_receiver fab ~node:1 (fun pkt -> got := pkt.Fabric.src :: !got);
  (* two big frames race to node 1: the second queues behind the first *)
  Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:4096 ());
  Fabric.send fab (mk_packet ~src:2 ~dst:1 ~bytes:4096 ());
  (* crash node 1 just after the first delivery: past the second frame's
     eta (both etas are equal), before its queued delivery at finish *)
  let first_finish = Fabric.min_latency p ~bytes:4096 in
  Engine.at eng
    Time.(first_finish + ns 1)
    (fun () -> Fabric.set_node_down fab ~node:1 true);
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "only the first frame arrives" [ 0 ] (List.rev !got);
  checki "queued frame died at the crash" 1 (Fabric.crash_drops fab ~node:1);
  let s = Fabric.stats fab in
  checki "both were on the wire" 2 s.Fabric.packets;
  checki "one delivered" 1 s.Fabric.delivered_packets

let test_fabric_link_down_during_ingress_queue () =
  (* same race, with a link-down window opening between eta and finish *)
  let first_finish = Fabric.min_latency p ~bytes:4096 in
  let window =
    { Faults.w_node = 1; w_from = Time.(first_finish + ns 1); w_upto = Time.s 1 }
  in
  let eng = Engine.create () in
  let fab =
    Fabric.create eng p ~faults:{ Faults.none with Faults.link_down = [ window ] } ~nodes:3
  in
  let got = ref [] in
  Fabric.set_receiver fab ~node:1 (fun pkt -> got := pkt.Fabric.src :: !got);
  Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:4096 ());
  Fabric.send fab (mk_packet ~src:2 ~dst:1 ~bytes:4096 ());
  Engine.run eng;
  check (Alcotest.list Alcotest.int) "only the first frame arrives" [ 0 ] (List.rev !got);
  let s = Fabric.stats fab in
  checki "one delivered" 1 s.Fabric.delivered_packets

(* ------------------------------------------------------------------ *)
(* Multi-switch fabrics                                                *)
(* ------------------------------------------------------------------ *)

let test_fabric_multihop_latency () =
  (* an uncontended frame's arrival matches path_latency on every shape *)
  List.iter
    (fun (name, kind, src, dst) ->
      let eng = Engine.create () in
      let fab = Fabric.create ~topology:kind eng p ~nodes:8 in
      let arrival = ref Time.zero in
      Fabric.set_receiver fab ~node:dst (fun _ -> arrival := Engine.now eng);
      Fabric.send fab (mk_packet ~src ~dst ~bytes:256 "x");
      Engine.run eng;
      let expected = Fabric.path_latency fab ~src ~dst ~bytes:256 in
      checki (name ^ ": arrival = path_latency") (Time.to_ps expected) (Time.to_ps !arrival))
    [
      ("single", Topology.Single, 0, 7);
      ("fat-tree same leaf", Topology.Fat_tree { leaf_radix = 4 }, 0, 1);
      ("fat-tree cross leaf", Topology.Fat_tree { leaf_radix = 4 }, 0, 7);
      ("torus", Topology.Torus { dims = Some (2, 2, 2) }, 0, 7);
    ]

let test_fabric_single_matches_seed_timing () =
  (* the Single topology takes the literal seed timing path: path_latency
     and min_latency agree, and so does the measured arrival *)
  let eng = Engine.create () in
  let fab = Fabric.create ~topology:Topology.Single eng p ~nodes:4 in
  let arrival = ref Time.zero in
  Fabric.set_receiver fab ~node:2 (fun _ -> arrival := Engine.now eng);
  Fabric.send fab (mk_packet ~src:0 ~dst:2 ~bytes:64 "hello");
  Engine.run eng;
  checki "path_latency = min_latency"
    (Time.to_ps (Fabric.min_latency p ~bytes:64))
    (Time.to_ps (Fabric.path_latency fab ~src:0 ~dst:2 ~bytes:64));
  checki "arrival = min_latency"
    (Time.to_ps (Fabric.min_latency p ~bytes:64))
    (Time.to_ps !arrival)

let test_fabric_hop_contention () =
  (* fat-tree, radix 4: nodes 0 and 1 share leaf 0, and both their frames
     to node 4 must leave on the same up-port — the second waits *)
  let eng = Engine.create () in
  let fab = Fabric.create ~topology:(Topology.Fat_tree { leaf_radix = 4 }) eng p ~nodes:8 in
  let arrivals = ref [] in
  Fabric.set_receiver fab ~node:4 (fun pkt ->
      arrivals := (pkt.Fabric.src, Engine.now eng) :: !arrivals);
  Fabric.send fab (mk_packet ~src:0 ~dst:4 ~bytes:4096 ());
  Fabric.send fab (mk_packet ~src:1 ~dst:4 ~bytes:4096 ());
  Engine.run eng;
  let s = Fabric.stats fab in
  checkb "contention was charged" true (s.Fabric.hop_waits > 0);
  checki "both delivered" 2 s.Fabric.delivered_packets;
  match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] ->
      let ser =
        Time.to_ps (Params.wire_time p ~bytes:(Fabric.frame_wire_bytes p ~bytes:4096))
      in
      checkb "second serialised behind the first" true (Time.to_ps t2 - Time.to_ps t1 >= ser)
  | _ -> Alcotest.fail "expected two arrivals"

let test_fabric_single_counts_banyan_conflicts () =
  (* routes (0 -> 3) and (4 -> 1) share the stage-0 wire of an 8-port omega
     network: on the seed switch the overlap is counted but not charged *)
  let sw = Switch.create ~ports:8 in
  checkb "routes do conflict" true (Switch.conflict sw (0, 3) (4, 1));
  let eng = Engine.create () in
  let fab = Fabric.create eng p ~nodes:8 in
  let arrivals = ref [] in
  let recv dst = Fabric.set_receiver fab ~node:dst (fun _ -> arrivals := Engine.now eng :: !arrivals) in
  recv 3;
  recv 1;
  Fabric.send fab (mk_packet ~src:0 ~dst:3 ~bytes:256 ());
  Fabric.send fab (mk_packet ~src:4 ~dst:1 ~bytes:256 ());
  Engine.run eng;
  let s = Fabric.stats fab in
  checkb "internal conflict counted" true (s.Fabric.banyan_conflicts > 0);
  checki "nothing waited (seed timing preserved)" 0 s.Fabric.hop_waits;
  (match !arrivals with
  | [ t1; t2 ] ->
      checki "both frames keep the seed latency" (Time.to_ps t1) (Time.to_ps t2);
      checki "which is min_latency"
        (Time.to_ps (Fabric.min_latency p ~bytes:256))
        (Time.to_ps t1)
  | _ -> Alcotest.fail "expected two arrivals")

let test_fabric_unrestricted_faster () =
  let latency params =
    let eng = Engine.create () in
    let fab = Fabric.create eng params ~nodes:2 in
    let t = ref Time.zero in
    Fabric.set_receiver fab ~node:1 (fun _ -> t := Engine.now eng);
    Fabric.send fab (mk_packet ~src:0 ~dst:1 ~bytes:4096 ());
    Engine.run eng;
    !t
  in
  let restricted = latency p in
  let unrestricted = latency { p with Params.cell_payload_bytes = 1 lsl 26 } in
  checkb "no framing overhead is faster" true (unrestricted < restricted)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "atm"
    [
      ( "cell",
        [
          Alcotest.test_case "sizes" `Quick test_cell_sizes;
          Alcotest.test_case "roundtrip" `Quick test_cell_roundtrip;
          Alcotest.test_case "validation" `Quick test_cell_validation;
          qc cell_roundtrip_qc;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known_vector;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "aal5",
        [
          Alcotest.test_case "roundtrip" `Quick test_aal5_roundtrip;
          Alcotest.test_case "empty frame" `Quick test_aal5_empty_frame;
          Alcotest.test_case "last-cell marking" `Quick test_aal5_last_bit;
          Alcotest.test_case "corruption detected" `Quick test_aal5_corruption_detected;
          Alcotest.test_case "pending cells" `Quick test_aal5_pending_cells;
          Alcotest.test_case "push_result CRC mismatch" `Quick
            test_aal5_push_result_crc_mismatch;
          Alcotest.test_case "push_result bad length" `Quick test_aal5_push_result_bad_length;
          Alcotest.test_case "truncated trailer" `Quick test_aal5_truncated_trailer;
          Alcotest.test_case "demux interleaved VCs" `Quick test_aal5_demux_interleaved_vcs;
          Alcotest.test_case "demux isolates errors per VC" `Quick
            test_aal5_demux_error_isolated_to_vc;
          qc aal5_roundtrip_qc;
          qc aal5_cell_count_qc;
          qc fabric_cells_match_aal5_qc;
        ] );
      ( "switch",
        [
          Alcotest.test_case "structure" `Quick test_switch_structure;
          Alcotest.test_case "routes reach destination" `Quick
            test_switch_routes_reach_destination;
          Alcotest.test_case "conflicts" `Quick test_switch_conflicts;
          qc switch_conflict_symmetric;
          qc switch_route_exchanged_bit;
          qc switch_conflict_reflexive;
        ] );
      ( "topology",
        [
          Alcotest.test_case "single" `Quick test_topology_single;
          Alcotest.test_case "fat-tree structure" `Quick test_topology_fat_tree_structure;
          Alcotest.test_case "fat-tree reachability" `Quick test_topology_fat_tree_reachability;
          Alcotest.test_case "torus structure" `Quick test_topology_torus_structure;
          Alcotest.test_case "torus dimension order" `Quick test_topology_torus_dimension_order;
          Alcotest.test_case "validate" `Quick test_topology_validate;
          Alcotest.test_case "kind strings" `Quick test_topology_kind_strings;
          Alcotest.test_case "walk visits the reference hops and wires" `Quick
            test_walk_matches_route;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "delivery latency" `Quick test_fabric_delivery_and_latency;
          Alcotest.test_case "wire accounting" `Quick test_fabric_wire_accounting;
          Alcotest.test_case "FIFO per src-dst pair" `Quick test_fabric_fifo_per_pair;
          Alcotest.test_case "ingress contention" `Quick test_fabric_ingress_contention;
          Alcotest.test_case "address validation" `Quick test_fabric_rejects_bad_addresses;
          Alcotest.test_case "min_latency monotone" `Quick test_fabric_min_latency_monotone;
          Alcotest.test_case "stats" `Quick test_fabric_stats;
          Alcotest.test_case "unrestricted cells faster" `Quick test_fabric_unrestricted_faster;
          Alcotest.test_case "sub-cell wire charge" `Quick test_fabric_subcell_wire;
          Alcotest.test_case "offered/wire/delivered split" `Quick test_fabric_stats_split;
          Alcotest.test_case "crash during ingress queue" `Quick
            test_fabric_crash_during_ingress_queue;
          Alcotest.test_case "link down during ingress queue" `Quick
            test_fabric_link_down_during_ingress_queue;
        ] );
      ( "multi-switch",
        [
          Alcotest.test_case "multihop latency" `Quick test_fabric_multihop_latency;
          Alcotest.test_case "single matches seed timing" `Quick
            test_fabric_single_matches_seed_timing;
          Alcotest.test_case "hop contention" `Quick test_fabric_hop_contention;
          Alcotest.test_case "single counts banyan conflicts" `Quick
            test_fabric_single_counts_banyan_conflicts;
        ] );
    ]
