(* Workload inputs generated from the benchmark seed, and the sequential
   references the outputs are checked against. The simulator receives only
   the generated inputs. *)

module Rng = Cni_engine.Rng
module Faults = Cni_atm.Faults
module Topology = Cni_atm.Topology
module Sparse = Cni_apps.Sparse
module Jacobi = Cni_apps.Jacobi
module Scenario = Cni_experiments.Scenario
module Arrival = Cni_experiments.Arrival

let pick ~seed choices =
  let n = Array.length choices in
  choices.(((seed mod n) + n) mod n)

(* bcsstk14-like: a 3-dof stiffness mesh of order 1005, 56% of the paper's
   1806 so that one run takes about a second of host time, grown or
   shrunk by up to two mesh nodes so that the seed moves the simulated times
   a little, with seeded values that keep the matrix diagonally dominant,
   hence SPD *)
let cholesky_matrix ~seed =
  let n = pick ~seed (Array.init 5 (fun k -> 1005 + (3 * (k - 2)))) in
  let s = Sparse.stiffness_like ~n ~dofs:3 ~seed:14 in
  let rng = Rng.create ~seed in
  let values = Array.make (Array.length s.Sparse.values) 0. in
  let rowsum = Array.make n 0. in
  for j = 0 to n - 1 do
    for p = s.Sparse.colptr.(j) + 1 to s.Sparse.colptr.(j + 1) - 1 do
      let v = 0.05 +. (0.35 *. Rng.float rng) in
      let i = s.Sparse.rowidx.(p) in
      values.(p) <- -.v;
      rowsum.(i) <- rowsum.(i) +. v;
      rowsum.(j) <- rowsum.(j) +. v
    done
  done;
  for j = 0 to n - 1 do
    values.(s.Sparse.colptr.(j)) <- rowsum.(j) +. 1. +. Rng.float rng
  done;
  { s with Sparse.values }

(* worst entry-wise error relative to max(1, |reference|); a NaN propagates *)
let max_relative_error ~reference values =
  if Array.length values <> Array.length reference then Float.infinity
  else begin
    let worst = ref 0. in
    Array.iteri
      (fun p r ->
        worst := Float.max !worst (Float.abs (values.(p) -. r) /. Float.max 1. (Float.abs r)))
      reference;
    !worst
  end

(* Jacobi at the paper's largest grid, 1024^2, give or take four rows, for
   four iterations (about half a second of host time): the application fixes
   the grid's contents, so the seed picks its order *)
let jacobi_config ~seed =
  {
    Jacobi.default_config with
    Jacobi.n = pick ~seed [| 1020; 1022; 1024; 1026; 1028 |];
    iterations = 4;
  }

(* Jacobi's initial grid: a fixed boundary around a zero interior *)
let jacobi_initial n i j =
  if i = 0 || j = 0 || i = n - 1 || j = n - 1 then
    1.0 +. (float_of_int ((i * 31) + (j * 17) mod 97) /. 97.0)
  else 0.0

(* the sequential sweep whose final-plane sum the parallel run must match *)
let jacobi_checksum (c : Jacobi.config) =
  let n = c.Jacobi.n in
  let cur = ref (Array.init (n * n) (fun k -> jacobi_initial n (k / n) (k mod n))) in
  let nxt = ref (Array.copy !cur) in
  for _ = 1 to c.Jacobi.iterations do
    let src = !cur and dst = !nxt in
    for i = 1 to n - 2 do
      let base = i * n in
      for j = 1 to n - 2 do
        dst.(base + j) <-
          0.25
          *. (src.(base - n + j) +. src.(base + n + j) +. src.(base + j - 1) +. src.(base + j + 1))
      done
    done;
    cur := dst;
    nxt := src
  done;
  Array.fold_left ( +. ) 0. !cur

(* 48 clients and 16 servers on one switch, Poisson arrivals, AIH off: every
   small frame takes the host receive path under the adaptive policy *)
let serve_hostpath ~seed =
  {
    Scenario.default with
    Scenario.name = "serve-hostpath";
    summary = "open-loop KV through the host receive path on one switch";
    clients = 48;
    servers = 16;
    requests_per_client = 3000;
    arrival = Arrival.Poisson { rate_per_s = 50_000. };
    value_bytes = 256;
    put_pct = 20;
    aih = false;
    rx_policy = Scenario.Adaptive;
    seed;
  }

(* 48 clients and 16 servers on a 3D torus, Poisson arrivals, AIH on, cell
   loss high enough that ~0.3% of requests wait out a retransmission, so
   p999 measures recovery while p99 stays in the contention tail *)
let serve_faulty_torus ~seed =
  {
    Scenario.default with
    Scenario.name = "serve-faulty-torus";
    summary = "open-loop KV on a lossy 3D torus";
    clients = 48;
    servers = 16;
    requests_per_client = 1000;
    arrival = Arrival.Poisson { rate_per_s = 10_000. };
    value_bytes = 256;
    put_pct = 50;
    aih = true;
    topology = Topology.Torus { dims = None };
    faults = { Faults.none with Faults.seed; cell_loss = 3e-4 };
    seed;
  }
