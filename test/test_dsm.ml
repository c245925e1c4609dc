(* Tests for the DSM layer: vector clocks, diffs, and end-to-end LRC runs on
   small clusters. *)

module Time = Cni_engine.Time
module Engine = Cni_engine.Engine
module Cluster = Cni_cluster.Cluster
module Node = Cni_cluster.Node
module Nic = Cni_nic.Nic
module Vclock = Cni_dsm.Vclock
module Diff = Cni_dsm.Diff
module Space = Cni_dsm.Space
module Lrc = Cni_dsm.Lrc
module Shmem = Cni_dsm.Shmem

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Vclock                                                              *)
(* ------------------------------------------------------------------ *)

let test_vclock_basic () =
  let a = Vclock.create 3 in
  checki "fresh component" 0 (Vclock.get a 1);
  checki "incr returns new" 1 (Vclock.incr a 1);
  checki "incr again" 2 (Vclock.incr a 1);
  let b = Vclock.copy a in
  ignore (Vclock.incr b 2);
  checkb "a <= b" true (Vclock.leq a b);
  checkb "b </= a" false (Vclock.leq b a);
  Vclock.merge a b;
  checkb "after merge equal" true (Vclock.equal a b);
  checki "wire bytes" 12 (Vclock.wire_bytes a)

let test_vclock_merge_pointwise () =
  let a = Vclock.create 2 and b = Vclock.create 2 in
  Vclock.set a 0 5;
  Vclock.set b 1 7;
  Vclock.merge a b;
  checki "kept own max" 5 (Vclock.get a 0);
  checki "took other max" 7 (Vclock.get a 1)

(* qcheck lattice laws for vector clocks *)
let gen_vc =
  QCheck.make
    QCheck.Gen.(
      map
        (fun l ->
          let v = Vclock.create 4 in
          List.iteri (fun i x -> if i < 4 then Vclock.set v i x) l;
          v)
        (list_size (return 4) (int_bound 100)))

let vclock_merge_is_lub =
  QCheck.Test.make ~name:"merge is the least upper bound" ~count:300 (QCheck.pair gen_vc gen_vc)
    (fun (a, b) ->
      let m = Vclock.copy a in
      Vclock.merge m b;
      Vclock.leq a m && Vclock.leq b m
      &&
      (* minimality: m agrees with a or b pointwise *)
      List.for_all
        (fun k -> Vclock.get m k = max (Vclock.get a k) (Vclock.get b k))
        [ 0; 1; 2; 3 ])

let vclock_merge_commutes =
  QCheck.Test.make ~name:"merge commutes" ~count:300 (QCheck.pair gen_vc gen_vc) (fun (a, b) ->
      let m1 = Vclock.copy a in
      Vclock.merge m1 b;
      let m2 = Vclock.copy b in
      Vclock.merge m2 a;
      Vclock.equal m1 m2)

let vclock_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:300 gen_vc (fun a ->
      let m = Vclock.copy a in
      Vclock.merge m a;
      Vclock.equal m a)

let vclock_leq_partial_order =
  QCheck.Test.make ~name:"leq is a partial order" ~count:300 (QCheck.pair gen_vc gen_vc)
    (fun (a, b) ->
      Vclock.leq a a && ((not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b))

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let page_of_string s =
  let b = Bytes.make 128 '\000' in
  Bytes.blit_string s 0 b 0 (min (String.length s) 128);
  b

let test_diff_roundtrip () =
  let twin = page_of_string "hello world, this is the original page content" in
  let current = Bytes.copy twin in
  Bytes.blit_string "HELLO" 0 current 0 5;
  Bytes.blit_string "PATCH" 0 current 64 5;
  let d = Diff.create ~twin ~current in
  checkb "diff not empty" false (Diff.is_empty d);
  checki "two runs" 2 (Diff.runs d);
  let target = Bytes.copy twin in
  Diff.apply d target;
  checkb "apply reconstructs" true (Bytes.equal target current)

let test_diff_empty () =
  let twin = page_of_string "same" in
  let d = Diff.create ~twin ~current:(Bytes.copy twin) in
  checkb "empty" true (Diff.is_empty d);
  checki "no words" 0 (Diff.changed_words d);
  checki "no wire bytes" 0 (Diff.wire_bytes d)

let test_diff_encode_decode () =
  let twin = page_of_string "abcdefgh12345678" in
  let current = Bytes.copy twin in
  Bytes.set current 3 'X';
  Bytes.set current 100 'Y';
  let d = Diff.create ~twin ~current in
  let d' = Diff.decode (Diff.encode d) in
  let t1 = Bytes.copy twin and t2 = Bytes.copy twin in
  Diff.apply d t1;
  Diff.apply d' t2;
  checkb "decode(encode) applies equally" true (Bytes.equal t1 t2)

let test_diff_merge () =
  let twin = Bytes.make 64 '\000' in
  let mid = Bytes.copy twin in
  Bytes.set_int64_ne mid 8 42L;
  let d1 = Diff.create ~twin ~current:mid in
  let final = Bytes.copy mid in
  Bytes.set_int64_ne final 8 0L (* overwritten back to zero! *);
  Bytes.set_int64_ne final 24 7L;
  let d2 = Diff.create ~twin:mid ~current:final in
  let m = Diff.merge d1 d2 in
  let target = Bytes.copy twin in
  Diff.apply m target;
  checkb "merge = sequential application" true (Bytes.equal target final)

(* qcheck: diff apply reconstructs arbitrary mutations *)
let diff_reconstruction =
  QCheck.Test.make ~name:"diff reconstructs arbitrary word mutations" ~count:200
    QCheck.(pair (list (pair (int_bound 31) int64)) (int_bound 1000))
    (fun (mutations, seed) ->
      let twin = Bytes.create 256 in
      for i = 0 to 255 do
        Bytes.set twin i (Char.chr ((i * 7 + seed) land 0xff))
      done;
      let current = Bytes.copy twin in
      List.iter (fun (w, v) -> Bytes.set_int64_ne current (w * 8) v) mutations;
      let d = Diff.create ~twin ~current in
      let target = Bytes.copy twin in
      Diff.apply d target;
      Bytes.equal target current)

let diff_size_bounded =
  QCheck.Test.make ~name:"diff wire size bounded by page + headers" ~count:200
    QCheck.(list (pair (int_bound 31) int64))
    (fun mutations ->
      let twin = Bytes.make 256 '\xAB' in
      let current = Bytes.copy twin in
      List.iter (fun (w, v) -> Bytes.set_int64_ne current (w * 8) v) mutations;
      let d = Diff.create ~twin ~current in
      Diff.wire_bytes d <= 256 + (Diff.runs d * 8)
      && Diff.changed_words d * 8 <= Diff.wire_bytes d)

(* ------------------------------------------------------------------ *)
(* End-to-end LRC                                                      *)
(* ------------------------------------------------------------------ *)

let make_cluster ?barrier_impl ~kind ~nodes () =
  let cluster = Cluster.create ~nic_kind:kind ~nodes () in
  let space = Space.create ~nprocs:nodes ~page_bytes:(Cluster.params cluster).page_bytes in
  let lrcs = Lrc.install cluster space ?barrier_impl () in
  (cluster, space, lrcs)

let cni_kind = `Cni Nic.default_cni_options

(* Two nodes fill halves of an array, synchronise on a barrier, then each
   reads the whole array: values must flow and time must advance. *)
let run_barrier_sharing ?barrier_impl kind =
  let nodes = 2 in
  let cluster, space, lrcs = make_cluster ?barrier_impl ~kind ~nodes () in
  let arr = Shmem.Farray.create space ~len:1024 in
  let half = 512 in
  let sums = Array.make nodes 0.0 in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      let lo = me * half in
      Shmem.Farray.init_local lrc arr ~lo ~len:half (fun i -> float_of_int i);
      Lrc.barrier lrc ~id:0;
      Shmem.Farray.write_range lrc arr ~lo ~len:half;
      for i = lo to lo + half - 1 do
        Shmem.Farray.set arr i (float_of_int (i * 2))
      done;
      Node.work node 10_000;
      Lrc.barrier lrc ~id:0;
      Shmem.Farray.read_range lrc arr ~lo:0 ~len:1024;
      let s = ref 0.0 in
      for i = 0 to 1023 do
        s := !s +. Shmem.Farray.get arr i
      done;
      sums.(me) <- !s;
      Lrc.barrier lrc ~id:0);
  (cluster, lrcs, sums)

let expected_sum = float_of_int (1023 * 1024) (* sum of 2i for i in 0..1023 *)

let test_barrier_sharing_cni () =
  let cluster, lrcs, sums = run_barrier_sharing cni_kind in
  check (Alcotest.float 0.001) "node0 sees all data" expected_sum sums.(0);
  check (Alcotest.float 0.001) "node1 sees all data" expected_sum sums.(1);
  checkb "time advanced" true (Cluster.elapsed cluster > Time.zero);
  let st = Lrc.stats lrcs.(0) in
  checkb "node0 faulted" true (st.Lrc.faults > 0);
  checkb "intervals closed" true (st.Lrc.intervals > 0)

let test_barrier_sharing_standard () =
  let cluster, _lrcs, sums = run_barrier_sharing `Standard in
  check (Alcotest.float 0.001) "node0 sees all data" expected_sum sums.(0);
  check (Alcotest.float 0.001) "node1 sees all data" expected_sum sums.(1);
  checkb "time advanced" true (Cluster.elapsed cluster > Time.zero)

let test_cni_faster_than_standard () =
  let c1, _, _ = run_barrier_sharing cni_kind in
  let c2, _, _ = run_barrier_sharing `Standard in
  checkb "CNI no slower than standard" true (Cluster.elapsed c1 <= Cluster.elapsed c2)

let total_interrupts cluster ~nodes =
  let acc = ref 0 in
  for n = 0 to nodes - 1 do
    acc := !acc + (Nic.stats (Node.nic (Cluster.node cluster n))).Nic.interrupts
  done;
  !acc

(* The NIC-tree barrier must deliver the same memory semantics as the
   centralised manager: write notices reach every node, so both nodes read
   the same (complete) data — and on CNI the whole run takes zero host
   interrupts because the tree combines on the boards. *)
let test_nic_collective_barrier_parity () =
  let cluster, lrcs, sums = run_barrier_sharing ~barrier_impl:`Nic_collective cni_kind in
  check (Alcotest.float 0.001) "node0 sees all data" expected_sum sums.(0);
  check (Alcotest.float 0.001) "node1 sees all data" expected_sum sums.(1);
  let st = Lrc.stats lrcs.(0) in
  checkb "barriers counted" true (st.Lrc.barriers = 3);
  checki "zero host interrupts on CNI" 0 (total_interrupts cluster ~nodes:2)

let test_nic_collective_barrier_standard () =
  (* same semantics on the standard interface (handlers behind interrupts) *)
  let cluster, _lrcs, sums = run_barrier_sharing ~barrier_impl:`Nic_collective `Standard in
  check (Alcotest.float 0.001) "node0 sees all data" expected_sum sums.(0);
  check (Alcotest.float 0.001) "node1 sees all data" expected_sum sums.(1);
  checkb "standard interface interrupts per tree packet" true
    (total_interrupts cluster ~nodes:2 > 0)

(* Lock-protected counter: mutual exclusion must give an exact total. *)
let test_lock_counter () =
  let nodes = 4 in
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes () in
  let counter = Shmem.Iarray.create space ~len:1 in
  let iters = 20 in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      if me = 0 then Shmem.Iarray.init_local lrc counter ~lo:0 ~len:1 (fun _ -> 0);
      Lrc.barrier lrc ~id:9;
      for _ = 1 to iters do
        Lrc.acquire lrc ~lock:0;
        let v = Shmem.Iarray.read1 lrc counter 0 in
        Node.work node 200;
        Shmem.Iarray.write1 lrc counter 0 (v + 1);
        Lrc.release lrc ~lock:0
      done;
      Lrc.barrier lrc ~id:9);
  checki "counter total" (nodes * iters) (Shmem.Iarray.get counter 0);
  let remote = Array.fold_left (fun a l -> a + (Lrc.stats l).Lrc.remote_acquires) 0 lrcs in
  checkb "some remote acquires" true (remote > 0)

(* A single-node run must not send any packets. *)
let test_single_node_no_traffic () =
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes:1 () in
  let arr = Shmem.Farray.create space ~len:256 in
  Cluster.run_app cluster (fun node ->
      let lrc = lrcs.(Node.id node) in
      Shmem.Farray.init_local lrc arr ~lo:0 ~len:256 (fun _ -> 1.0);
      Lrc.acquire lrc ~lock:3;
      Shmem.Farray.write_range lrc arr ~lo:0 ~len:256;
      Lrc.release lrc ~lock:3;
      Lrc.barrier lrc ~id:1;
      Shmem.Farray.read_range lrc arr ~lo:0 ~len:256;
      Node.work node 1000);
  let fstats = Cni_atm.Fabric.stats (Cluster.fabric cluster) in
  checki "no packets" 0 fstats.Cni_atm.Fabric.packets;
  checkb "time advanced" true (Cluster.elapsed cluster > Time.zero)

(* Page migration under locks: receive caching and transmit hits. *)
let test_page_migration_hits () =
  let nodes = 2 in
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes () in
  let arr = Shmem.Farray.create space ~len:512 (* 2 pages at 2 KB *) in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      if me = 0 then Shmem.Farray.init_local lrc arr ~lo:0 ~len:512 (fun _ -> 0.0);
      Lrc.barrier lrc ~id:0;
      (* ping-pong the pages between the nodes under a lock *)
      for _round = 1 to 6 do
        Lrc.acquire lrc ~lock:1;
        Shmem.Farray.write_range lrc arr ~lo:0 ~len:512;
        for i = 0 to 511 do
          Shmem.Farray.set arr i (Shmem.Farray.get arr i +. 1.0)
        done;
        Lrc.release lrc ~lock:1;
        Node.work node 5_000
      done;
      Lrc.barrier lrc ~id:0);
  check (Alcotest.float 0.001) "12 rounds of +1" 12.0 (Shmem.Farray.get arr 0);
  let hit_ratio = Cluster.network_cache_hit_ratio cluster in
  checkb "hit ratio sane" true (hit_ratio >= 0.0 && hit_ratio <= 100.0);
  let pf = Array.fold_left (fun a l -> a + (Lrc.stats l).Lrc.page_fetches) 0 lrcs in
  checkb "pages migrated" true (pf > 0)


(* ------------------------------------------------------------------ *)
(* Space and Protocol units                                            *)
(* ------------------------------------------------------------------ *)

module Protocol = Cni_dsm.Protocol

let test_space_alloc () =
  let sp = Space.create ~nprocs:4 ~page_bytes:2048 in
  let a = Space.alloc sp ~bytes:100 in
  let b = Space.alloc sp ~bytes:5000 in
  checki "page aligned" 0 ((a - Space.shared_base) mod 2048);
  checki "next allocation past rounded size" (a + 2048) b;
  checki "npages" 4 (Space.npages sp);
  checki "page_of_addr" 1 (Space.page_of_addr sp b);
  checki "addr_of_page roundtrip" b (Space.addr_of_page sp 1)

let test_space_intervals () =
  let sp = Space.create ~nprocs:2 ~page_bytes:2048 in
  let notice page seq bytes = { Protocol.page; owner = 0; seq; diff_bytes = bytes } in
  Space.record_interval sp ~node:0 ~seq:1 ~notices:[ notice 3 1 100 ];
  Space.record_interval sp ~node:0 ~seq:2 ~notices:[ notice 3 2 50; notice 4 2 10 ];
  (* out-of-order recording is rejected *)
  Alcotest.check_raises "seq gap" (Invalid_argument "Space.record_interval: out-of-order interval")
    (fun () -> Space.record_interval sp ~node:0 ~seq:5 ~notices:[]);
  let from_vc = Vclock.create 2 and upto = Vclock.create 2 in
  Vclock.set upto 0 2;
  checki "both intervals reported" 3 (List.length (Space.notices_between sp ~from_vc ~upto_vc:upto));
  Vclock.set from_vc 0 1;
  checki "only the second" 2 (List.length (Space.notices_between sp ~from_vc ~upto_vc:upto));
  checki "diff bytes summed" 150 (Space.diff_bytes_between sp ~owner:0 ~page:3 ~since:0 ~upto:2);
  checki "diff bytes since" 50 (Space.diff_bytes_between sp ~owner:0 ~page:3 ~since:1 ~upto:2);
  checki "absent page" 0 (Space.diff_bytes_between sp ~owner:1 ~page:3 ~since:0 ~upto:9)

let test_space_routing_defaults () =
  let sp = Space.create ~nprocs:4 ~page_bytes:2048 in
  checki "home round-robin" 3 (Space.home sp ~page:7);
  checki "last writer defaults to home" 3 (Space.last_writer sp ~page:7);
  Space.set_last_writer sp ~page:7 ~node:1;
  checki "last writer updated" 1 (Space.last_writer sp ~page:7);
  checki "lock manager" 2 (Space.lock_manager sp ~lock:6);
  checki "lock last owner defaults to manager" 2 (Space.lock_last_owner sp ~lock:6)

let test_protocol_sizes () =
  let vc = Vclock.create 4 in
  let notices =
    [ { Protocol.page = 1; owner = 0; seq = 1; diff_bytes = 64 };
      { Protocol.page = 2; owner = 1; seq = 1; diff_bytes = 64 } ]
  in
  checki "acquire carries vc" (8 + 16) (Protocol.body_bytes (Protocol.Lock_acquire { lock = 0; requester = 1; vc }));
  checki "grant carries vc + notices" (8 + 16 + 24)
    (Protocol.body_bytes (Protocol.Lock_grant { lock = 0; vc; notices }));
  checki "page reply data rides separately" 0
    (Protocol.body_bytes (Protocol.Page_reply { page = 3; migratory = true }));
  checki "diff reply body is metadata only (data rides as bulk)" 8
    (Protocol.body_bytes (Protocol.Diff_reply { page = 3; owner = 0; bytes = 100; upto = 2 }))

let test_protocol_headers_classify () =
  (* every protocol kind's header matches its installed PATHFINDER pattern *)
  let vc = Vclock.create 2 in
  let msgs =
    [ Protocol.Lock_acquire { lock = 1; requester = 0; vc };
      Protocol.Lock_forward { lock = 1; requester = 0; vc };
      Protocol.Lock_grant { lock = 1; vc; notices = [] };
      Protocol.Page_req { page = 2; requester = 0; write_intent = true };
      Protocol.Page_reply { page = 2; migratory = true };
      Protocol.Diff_req { page = 2; requester = 0; since = 0; upto = 1 };
      Protocol.Diff_reply { page = 2; owner = 1; bytes = 8; upto = 1 };
      Protocol.Barrier_arrive { barrier = 0; node = 1; vc; notices = [] };
      Protocol.Barrier_release { barrier = 0; vc; notices = [] } ]
  in
  List.iter
    (fun msg ->
      let header = Protocol.header ~src:1 msg in
      let kind = Protocol.kind_of msg in
      let pattern = Cni_nic.Wire.pattern_channel_kind ~channel:Protocol.channel ~kind in
      if not (Cni_pathfinder.Pattern.matches pattern header) then
        Alcotest.failf "header of %s does not match its pattern" (Protocol.kind_name kind))
    msgs

(* ------------------------------------------------------------------ *)
(* More end-to-end LRC behaviour                                       *)
(* ------------------------------------------------------------------ *)

(* concurrent write sharing: two nodes write disjoint halves of ONE page
   under different locks between barriers; both sets of writes must be seen
   by everyone (diffs fetched from both writers) *)
let test_concurrent_write_sharing () =
  let nodes = 2 in
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes () in
  let arr = Shmem.Farray.create space ~len:256 (* one 2 KB page *) in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      if me = 0 then Shmem.Farray.init_local lrc arr ~lo:0 ~len:256 (fun _ -> 0.0);
      Lrc.barrier lrc ~id:0;
      for round = 1 to 3 do
        (* each node writes its own half under its own lock *)
        Lrc.acquire lrc ~lock:(10 + me);
        let lo = me * 128 in
        Shmem.Farray.write_range lrc arr ~lo ~len:128;
        for i = lo to lo + 127 do
          Shmem.Farray.set arr i (float_of_int ((round * 1000) + i))
        done;
        Lrc.release lrc ~lock:(10 + me);
        Lrc.barrier lrc ~id:1;
        (* everyone reads the whole page: must see both halves *)
        Shmem.Farray.read_range lrc arr ~lo:0 ~len:256;
        let ok = ref true in
        for i = 0 to 255 do
          if Shmem.Farray.get arr i <> float_of_int ((round * 1000) + i) then ok := false
        done;
        if not !ok then Alcotest.failf "node %d saw stale data in round %d" me round;
        Lrc.barrier lrc ~id:2
      done);
  let df = Array.fold_left (fun a l -> a + (Lrc.stats l).Lrc.diff_fetches) 0 lrcs in
  checkb "diffs flowed between concurrent writers" true (df > 0)

(* the mapping cap (approximate-LRU address-space recycling of section 3.1):
   with a tiny cap, pages get evicted and refetched, and the run still
   computes the right values *)
let test_resident_cap_evicts () =
  let nodes = 2 in
  let cluster = Cluster.create ~nic_kind:cni_kind ~nodes () in
  let space = Space.create ~nprocs:nodes ~page_bytes:(Cluster.params cluster).page_bytes in
  let lrcs = Lrc.install cluster space ~max_resident_pages:4 () in
  let arr = Shmem.Farray.create space ~len:4096 (* 16 pages *) in
  let sum = ref 0.0 in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      if me = 0 then Shmem.Farray.init_local lrc arr ~lo:0 ~len:4096 (fun i -> float_of_int i);
      Lrc.barrier lrc ~id:0;
      if me = 1 then begin
        (* stream through all 16 pages twice with only 4 mapping slots *)
        for _pass = 1 to 2 do
          Shmem.Farray.read_range lrc arr ~lo:0 ~len:4096
        done;
        let s = ref 0.0 in
        for i = 0 to 4095 do
          s := !s +. Shmem.Farray.get arr i
        done;
        sum := !s
      end;
      Lrc.barrier lrc ~id:0);
  check (Alcotest.float 0.1) "values correct despite evictions"
    (float_of_int (4095 * 4096 / 2))
    !sum;
  checkb "evictions happened" true ((Lrc.stats lrcs.(1)).Lrc.evictions > 0)

(* barrier ids can be reused across epochs *)
let test_barrier_epochs () =
  let nodes = 3 in
  let cluster, _space, lrcs = make_cluster ~kind:cni_kind ~nodes () in
  let order = ref [] in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      for epoch = 1 to 5 do
        Node.work node ((me + 1) * 1000);
        Lrc.barrier lrc ~id:0;
        if me = 0 then order := epoch :: !order
      done);
  check (Alcotest.list Alcotest.int) "five epochs in order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

(* lock fairness-ish: a contended lock is granted to every requester *)
let test_lock_no_starvation () =
  let nodes = 4 in
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes () in
  let acquisitions = Array.make nodes 0 in
  let counter = Shmem.Iarray.create space ~len:1 in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      if me = 0 then Shmem.Iarray.init_local lrc counter ~lo:0 ~len:1 (fun _ -> 0);
      Lrc.barrier lrc ~id:0;
      for _ = 1 to 10 do
        Lrc.acquire lrc ~lock:5;
        acquisitions.(me) <- acquisitions.(me) + 1;
        Node.work node 500;
        Lrc.release lrc ~lock:5
      done;
      Lrc.barrier lrc ~id:0);
  Array.iteri (fun i n -> checki (Printf.sprintf "node %d completed" i) 10 n) acquisitions

(* the standard interface must interrupt for protocol service; CNI+AIH not *)
let test_aih_removes_interrupts () =
  let count kind =
    let cluster, space, lrcs = make_cluster ~kind ~nodes:2 () in
    let arr = Shmem.Farray.create space ~len:512 in
    Cluster.run_app cluster (fun node ->
        let me = Node.id node in
        let lrc = lrcs.(me) in
        if me = 0 then Shmem.Farray.init_local lrc arr ~lo:0 ~len:512 (fun _ -> 1.0);
        Lrc.barrier lrc ~id:0;
        if me = 1 then Shmem.Farray.read_range lrc arr ~lo:0 ~len:512;
        Lrc.barrier lrc ~id:0);
    Array.fold_left
      (fun acc nd -> acc + (Cni_nic.Nic.stats (Node.nic nd)).Cni_nic.Nic.interrupts)
      0 (Cluster.nodes cluster)
  in
  checki "AIH: zero interrupts" 0 (count cni_kind);
  checkb "standard: interrupts taken" true (count `Standard > 0)

let test_lock_api_errors () =
  let cluster, _space, lrcs = make_cluster ~kind:cni_kind ~nodes:1 () in
  Cluster.run_app cluster (fun node ->
      let lrc = lrcs.(Node.id node) in
      (try
         Lrc.release lrc ~lock:7;
         Alcotest.fail "release of unheld lock accepted"
       with Invalid_argument _ -> ());
      Lrc.acquire lrc ~lock:7;
      (try
         Lrc.acquire lrc ~lock:7;
         Alcotest.fail "re-acquire accepted"
       with Invalid_argument _ -> ());
      Lrc.release lrc ~lock:7)

let test_shmem_bounds () =
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes:1 () in
  let arr = Shmem.Farray.create space ~len:16 in
  Cluster.run_app cluster (fun node ->
      let lrc = lrcs.(Node.id node) in
      (try
         Shmem.Farray.read_range lrc arr ~lo:10 ~len:10;
         Alcotest.fail "read past end accepted"
       with Invalid_argument _ -> ());
      try
        Shmem.Farray.write_range lrc arr ~lo:(-1) ~len:1;
        Alcotest.fail "negative offset accepted"
      with Invalid_argument _ -> ())

let test_shmem_layout () =
  let sp = Space.create ~nprocs:2 ~page_bytes:2048 in
  let a = Shmem.Farray.create sp ~len:10 in
  let b = Shmem.Iarray.create sp ~len:10 in
  checki "lengths" 10 (Shmem.Farray.len a);
  checki "lengths" 10 (Shmem.Iarray.len b);
  (* allocations are page-aligned and disjoint *)
  let ba = Shmem.Block.base (Shmem.Farray.block a)
  and bb = Shmem.Block.base (Shmem.Iarray.block b) in
  checkb "disjoint" true (bb >= ba + 2048);
  checki "block bytes" 80 (Shmem.Block.bytes (Shmem.Farray.block a))

(* the traffic mix matches the synchronisation structure of the program *)
let test_message_mix () =
  (* barrier-only sharing: no lock traffic at all *)
  let cluster, space, lrcs = make_cluster ~kind:cni_kind ~nodes:2 () in
  let arr = Shmem.Farray.create space ~len:512 in
  Cluster.run_app cluster (fun node ->
      let me = Node.id node in
      let lrc = lrcs.(me) in
      Shmem.Farray.init_local lrc arr ~lo:(me * 256) ~len:256 (fun _ -> 1.0);
      Lrc.barrier lrc ~id:0;
      Shmem.Farray.write_range lrc arr ~lo:(me * 256) ~len:256;
      Lrc.barrier lrc ~id:0;
      Shmem.Farray.read_range lrc arr ~lo:0 ~len:512;
      Lrc.barrier lrc ~id:0);
  let mix = List.concat_map Lrc.received_messages (Array.to_list lrcs) in
  let count name = List.fold_left (fun a (k, n) -> if k = name then a + n else a) 0 mix in
  checki "no lock traffic" 0 (count "lock-acquire" + count "lock-forward" + count "lock-grant");
  checkb "barrier traffic present" true (count "barrier-arrive" > 0 && count "barrier-release" > 0);
  checkb "data was fetched" true (count "page-reply" + count "diff-reply" > 0);
  (* lock-based sharing: lock traffic appears *)
  let cluster2, space2, lrcs2 = make_cluster ~kind:cni_kind ~nodes:2 () in
  let c2 = Shmem.Iarray.create space2 ~len:1 in
  Cluster.run_app cluster2 (fun node ->
      let me = Node.id node in
      let lrc = lrcs2.(me) in
      if me = 0 then Shmem.Iarray.init_local lrc c2 ~lo:0 ~len:1 (fun _ -> 0);
      Lrc.barrier lrc ~id:0;
      for _ = 1 to 4 do
        Lrc.acquire lrc ~lock:0;
        Shmem.Iarray.write1 lrc c2 0 (Shmem.Iarray.read1 lrc c2 0 + 1);
        Lrc.release lrc ~lock:0
      done;
      Lrc.barrier lrc ~id:0);
  let mix2 = List.concat_map Lrc.received_messages (Array.to_list lrcs2) in
  let count2 name = List.fold_left (fun a (k, n) -> if k = name then a + n else a) 0 mix2 in
  checkb "lock grants flowed" true (count2 "lock-grant" > 0)

(* ------------------------------------------------------------------ *)
(* Pinned runs                                                         *)
(* ------------------------------------------------------------------ *)

(* Completion time, engine totals and protocol counters of two small CNI
   runs, pinned exactly. They move if the host cache model, the LRC
   page-state tables or the order pending diffs are requested in (a Hashtbl
   fold) changes — a change that must be deliberate. [events_dispatched]
   and [max_heap_depth] move only when the simulator schedules a different
   set of events: reorganising how a frame crosses the board keeps them. *)
let cluster4 ?faults ?topology nic_kind =
  let cluster = Cluster.create ?faults ?topology ~nic_kind ~nodes:4 () in
  let space = Space.create ~nprocs:4 ~page_bytes:(Cluster.params cluster).page_bytes in
  (cluster, Lrc.install cluster space ())

let engine_totals cluster =
  let s = Engine.run_stats (Cluster.engine cluster) in
  [ ("events", s.Engine.events_dispatched); ("max_heap_depth", s.Engine.max_heap_depth);
    ("digest", s.Engine.digest) ]

let pinned_run app ~elapsed_ps ~engine ~counters =
  let cluster, lrcs = cluster4 (`Cni Nic.default_cni_options) in
  app cluster lrcs;
  checki "elapsed ps" elapsed_ps (Time.to_ps (Cluster.elapsed cluster));
  check Alcotest.(list (pair string int)) "engine totals" engine (engine_totals cluster);
  let sum f = Array.fold_left (fun acc l -> acc + f (Lrc.stats l)) 0 lrcs in
  check
    Alcotest.(list (pair string int))
    "LRC stats summed over nodes" counters
    [
      ("faults", sum (fun s -> s.Lrc.faults));
      ("page_fetches", sum (fun s -> s.Lrc.page_fetches));
      ("diff_fetches", sum (fun s -> s.Lrc.diff_fetches));
      ("twins", sum (fun s -> s.Lrc.twins));
      ("intervals", sum (fun s -> s.Lrc.intervals));
      ("notices_applied", sum (fun s -> s.Lrc.notices_applied));
      ("local_acquires", sum (fun s -> s.Lrc.local_acquires));
      ("remote_acquires", sum (fun s -> s.Lrc.remote_acquires));
      ("barriers", sum (fun s -> s.Lrc.barriers));
      ("evictions", sum (fun s -> s.Lrc.evictions));
    ]

let test_pinned_jacobi () =
  pinned_run
    (fun cluster lrcs ->
      ignore
        (Cni_apps.Jacobi.run cluster lrcs
           { Cni_apps.Jacobi.default_config with Cni_apps.Jacobi.n = 128; iterations = 3 }))
    ~elapsed_ps:6_283_577_373
    ~engine:[ ("events", 1_586); ("max_heap_depth", 4); ("digest", 4_221_216_508_979_703_952) ]
    ~counters:
      [
        ("faults", 16);
        ("page_fetches", 16);
        ("diff_fetches", 0);
        ("twins", 192);
        ("intervals", 12);
        ("notices_applied", 576);
        ("local_acquires", 0);
        ("remote_acquires", 0);
        ("barriers", 28);
        ("evictions", 0);
      ]

let pinned_matrix () = Cni_apps.Sparse.stiffness_like ~n:120 ~dofs:3 ~seed:5

let run_cholesky cluster lrcs =
  Cni_apps.Cholesky.run cluster lrcs (Cni_apps.Cholesky.default_config (pinned_matrix ()))

let test_pinned_cholesky () =
  pinned_run
    (fun cluster lrcs -> ignore (run_cholesky cluster lrcs))
    ~elapsed_ps:53_309_604_564
    ~engine:[ ("events", 33_279); ("max_heap_depth", 7); ("digest", -3_478_499_709_552_796_099) ]
    ~counters:
      [
        ("faults", 422);
        ("page_fetches", 30);
        ("diff_fetches", 617);
        ("twins", 493);
        ("intervals", 239);
        ("notices_applied", 1451);
        ("local_acquires", 302);
        ("remote_acquires", 407);
        ("barriers", 8);
        ("evictions", 0);
      ]

(* The digest sees what rounded report values hide: one more picosecond of
   switch latency leaves the 4-node Jacobi's checksum and its elapsed time
   to 0.1 us as they were, and moves the digest. *)
let test_digest_sees_one_ps () =
  let run params =
    Cni_experiments.Runner.run ~params ~kind:(`Cni Nic.default_cni_options) ~procs:4
      (Cni_experiments.Runner.jacobi ~n:64 ~iterations:2)
  in
  let p = Cni_machine.Params.default in
  let a = run p
  and b =
    run { p with Cni_machine.Params.switch_latency = Time.(p.Cni_machine.Params.switch_latency + ps 1) }
  in
  let report (r : Cni_experiments.Runner.result) =
    Printf.sprintf "%.1f us, checksum %.6f" (Time.to_us_float r.elapsed) r.checksum
  in
  check Alcotest.string "rounded report unchanged" (report a) (report b);
  checkb "elapsed moved" true (a.Cni_experiments.Runner.elapsed <> b.elapsed);
  checkb "digest moved" true (a.digest <> b.digest)

(* The same 4-node Cholesky down the datapath branches the runs above skip,
   one row each: the host receive path under two wakeup policies, the OSIRIS
   and standard boards, reliable delivery over a lossy and corrupting
   fabric, a scrubbed crash, and a multi-switch fabric. Besides the engine
   totals, each row pins the counters that show its branch was taken, in
   the order of [datapath_columns], and that every frame record came back
   to the fabric's pool. *)
type datapath_row = {
  row : string;
  kind : Nic.kind;
  faults : Cni_atm.Faults.config option;
  topology : Cni_atm.Topology.kind option;
  expect : int list;
}

let datapath_columns =
  [ "elapsed_ps"; "events"; "max_heap_depth"; "digest"; "interrupts"; "polls"; "coalesced";
    "retransmits"; "crash_drops"; "hop_waits"; "frames_in_flight" ]

let no_aih = { Nic.default_cni_options with Nic.aih = false }

let datapath_rows =
  let crash =
    {
      Cni_atm.Faults.none with
      Cni_atm.Faults.schedule =
        [
          { Cni_atm.Faults.e_at = Time.us 9_000; e_node = 2;
            e_fault = Cni_atm.Faults.Crash { scrub = true } };
          { Cni_atm.Faults.e_at = Time.us 9_600; e_node = 2; e_fault = Cni_atm.Faults.Restart };
        ];
    }
  in
  let lossy = { Cni_atm.Faults.none with Cni_atm.Faults.cell_loss = 2e-4; cell_corrupt = 2e-4 } in
  let row ?faults ?topology row kind expect = { row; kind; faults; topology; expect } in
  [
    row "AIH off, hybrid wakeup" (`Cni no_aih)
      [ 65_953_760_301; 32_865; 9;
        2_253_288_856_889_818_573; 836; 1_396; 0; 0; 0; 0; 0 ];
    row "AIH off, adaptive wakeup, rx_batch 8"
      (`Cni { no_aih with Nic.rx_policy = Nic.Rx_adaptive Nic.default_rx_adaptive; rx_batch = 8 })
      [ 70_287_828_360; 38_477; 9;
        -3_342_043_214_406_017_916; 1_264; 772; 327; 0; 0; 0; 0 ];
    row "OSIRIS board" `Osiris
      [ 90_506_282_350; 37_150; 9;
        -4_086_223_448_580_967_872; 2_392; 0; 0; 0; 0; 0; 0 ];
    row "standard board" `Standard
      [ 98_029_180_716; 33_155; 9;
        -567_213_085_131_960_066; 2_322; 0; 0; 0; 0; 0; 0 ];
    row "reliable delivery, loss + corruption" ~faults:lossy (`Cni Nic.default_cni_options)
      [ 54_729_007_076; 63_005; 85;
        -3_100_719_415_534_746_042; 0; 0; 0; 6; 0; 0; 0 ];
    row "scrubbed crash of node 2" ~faults:crash (`Cni Nic.default_cni_options)
      [ 54_858_566_207; 62_438; 84;
        4_442_768_685_889_036_020; 0; 0; 0; 2; 2; 0; 0 ];
    row "3D torus" ~topology:(Cni_atm.Topology.Torus { dims = None })
      (`Cni Nic.default_cni_options)
      [ 52_671_302_938; 32_913; 7;
        4_350_840_709_079_368_283; 0; 0; 0; 0; 0; 191; 0 ];
  ]

let test_datapath_row r () =
  let cluster, lrcs = cluster4 ?faults:r.faults ?topology:r.topology r.kind in
  ignore (run_cholesky cluster lrcs);
  let nic f = Cluster.sum cluster (fun n -> f (Nic.stats (Node.nic n))) in
  let fabric = Cluster.fabric cluster in
  check
    Alcotest.(list (pair string int))
    r.row
    (List.combine datapath_columns r.expect)
    ([ ("elapsed_ps", Time.to_ps (Cluster.elapsed cluster)) ]
    @ engine_totals cluster
    @ [
        ("interrupts", nic (fun s -> s.Nic.interrupts));
        ("polls", nic (fun s -> s.Nic.polls));
        ("coalesced", nic (fun s -> s.Nic.coalesced));
        ("retransmits", Cluster.retransmits cluster);
        ("crash_drops",
          Cluster.sum cluster (fun n -> Cni_atm.Fabric.crash_drops fabric ~node:(Node.id n)));
        ("hop_waits", (Cni_atm.Fabric.stats fabric).Cni_atm.Fabric.hop_waits);
        ("frames_in_flight", Cni_atm.Fabric.frames_in_flight fabric);
      ])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dsm"
    [
      ( "vclock",
        [
          Alcotest.test_case "basic" `Quick test_vclock_basic;
          Alcotest.test_case "merge pointwise" `Quick test_vclock_merge_pointwise;
          qc vclock_merge_is_lub;
          qc vclock_merge_commutes;
          qc vclock_merge_idempotent;
          qc vclock_leq_partial_order;
        ] );
      ( "diff",
        [
          Alcotest.test_case "roundtrip" `Quick test_diff_roundtrip;
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "encode/decode" `Quick test_diff_encode_decode;
          Alcotest.test_case "merge" `Quick test_diff_merge;
          qc diff_reconstruction;
          qc diff_size_bounded;
        ] );
      ( "space",
        [
          Alcotest.test_case "allocation" `Quick test_space_alloc;
          Alcotest.test_case "interval log" `Quick test_space_intervals;
          Alcotest.test_case "routing defaults" `Quick test_space_routing_defaults;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "message sizes" `Quick test_protocol_sizes;
          Alcotest.test_case "headers classify" `Quick test_protocol_headers_classify;
        ] );
      ( "lrc",
        [
          Alcotest.test_case "barrier sharing (CNI)" `Quick test_barrier_sharing_cni;
          Alcotest.test_case "barrier sharing (standard)" `Quick test_barrier_sharing_standard;
          Alcotest.test_case "CNI <= standard" `Quick test_cni_faster_than_standard;
          Alcotest.test_case "NIC-tree barrier parity (CNI)" `Quick
            test_nic_collective_barrier_parity;
          Alcotest.test_case "NIC-tree barrier parity (standard)" `Quick
            test_nic_collective_barrier_standard;
          Alcotest.test_case "lock counter" `Quick test_lock_counter;
          Alcotest.test_case "single node: no traffic" `Quick test_single_node_no_traffic;
          Alcotest.test_case "page migration" `Quick test_page_migration_hits;
          Alcotest.test_case "concurrent write sharing" `Quick test_concurrent_write_sharing;
          Alcotest.test_case "resident cap evicts" `Quick test_resident_cap_evicts;
          Alcotest.test_case "barrier epochs" `Quick test_barrier_epochs;
          Alcotest.test_case "no lock starvation" `Quick test_lock_no_starvation;
          Alcotest.test_case "AIH removes interrupts" `Quick test_aih_removes_interrupts;
          Alcotest.test_case "message mix matches program" `Quick test_message_mix;
          Alcotest.test_case "lock API errors" `Quick test_lock_api_errors;
          Alcotest.test_case "shmem bounds" `Quick test_shmem_bounds;
          Alcotest.test_case "shmem layout" `Quick test_shmem_layout;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "4-node Jacobi elapsed + LRC stats" `Quick test_pinned_jacobi;
          Alcotest.test_case "4-node Cholesky elapsed + LRC stats" `Quick test_pinned_cholesky;
        ]
        @ List.map
            (fun r -> Alcotest.test_case ("4-node Cholesky, " ^ r.row) `Quick (test_datapath_row r))
            datapath_rows
        @ [ Alcotest.test_case "digest sees a 1 ps cost change" `Quick test_digest_sees_one_ps ] );
    ]
