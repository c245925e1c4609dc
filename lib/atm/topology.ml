type kind =
  | Single
  | Fat_tree of { leaf_radix : int }
  | Torus of { dims : (int * int * int) option }

type hop = { h_switch : int; h_in : int; h_out : int }

(* The concrete shape, with defaults resolved. All routing below is pure
   arithmetic on this record; nothing here is mutable. *)
type shape =
  | S_single
  | S_fat_tree of { d : int (* hosts per leaf = spines *); leaves : int }
  | S_torus of { dx : int; dy : int; dz : int }

type t = {
  kind : kind;
  shape : shape;
  nodes : int;
  switch_ports : int array;
  models : Switch.t array;  (* banyan internals, pow2-rounded, per switch *)
  link_count : int;
  max_hops : int;
  coords : int array;  (* torus: router [i]'s coordinate in [dim] at [3 * i + dim] *)
}

let kind t = t.kind
let nodes t = t.nodes
let switch_count t = Array.length t.switch_ports

let switch_ports t i =
  if i < 0 || i >= Array.length t.switch_ports then
    invalid_arg "Topology.switch_ports: switch out of range";
  t.switch_ports.(i)

let switch_model t i =
  if i < 0 || i >= Array.length t.models then
    invalid_arg "Topology.switch_model: switch out of range";
  t.models.(i)

let link_count t = t.link_count
let max_hops t = t.max_hops

let pow2_ceil n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 2

let models_of ports = Array.map (fun p -> Switch.create ~ports:(pow2_ceil p)) ports

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let auto_dims n =
  (* minimal largest dimension over all ordered factorizations a <= b <= c *)
  let best = ref (1, 1, n) in
  let score (a, b, c) = Stdlib.max a (Stdlib.max b c) in
  let a = ref 1 in
  while !a * !a * !a <= n do
    if n mod !a = 0 then begin
      let m = n / !a in
      let b = ref !a in
      while !b * !b <= m do
        if m mod !b = 0 then begin
          let cand = (!a, !b, m / !b) in
          if score cand < score !best then best := cand
        end;
        incr b
      done
    end;
    incr a
  done;
  !best

let validate kind ~nodes =
  if nodes < 1 then Error "need at least one node"
  else
    match kind with
    | Single -> Ok ()
    | Fat_tree { leaf_radix } ->
        if leaf_radix < 2 then Error "fat-tree leaf radix must be >= 2"
        else if leaf_radix mod 2 <> 0 then
          Error
            (Printf.sprintf "fat-tree leaf radix must be even (got %d): half down, half up"
               leaf_radix)
        else Ok ()
    | Torus { dims = None } -> Ok ()
    | Torus { dims = Some (dx, dy, dz) } ->
        if dx < 1 || dy < 1 || dz < 1 then Error "torus dimensions must be >= 1"
        else if dx * dy * dz <> nodes then
          Error
            (Printf.sprintf "torus %dx%dx%d holds %d nodes, cluster has %d" dx dy dz
               (dx * dy * dz) nodes)
        else Ok ()

let checked kind ~nodes =
  match validate kind ~nodes with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Topology: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let single ~nodes =
  checked Single ~nodes;
  {
    kind = Single;
    shape = S_single;
    nodes;
    switch_ports = [| nodes |];
    models = models_of [| nodes |];
    link_count = nodes;
    max_hops = 1;
    coords = [||];
  }

let fat_tree ?(leaf_radix = 16) ~nodes () =
  checked (Fat_tree { leaf_radix }) ~nodes;
  let d = leaf_radix / 2 in
  let leaves = (nodes + d - 1) / d in
  if leaves = 1 then
    (* degenerate: everything fits under one leaf; no spine level *)
    {
      kind = Fat_tree { leaf_radix };
      shape = S_fat_tree { d; leaves };
      nodes;
      switch_ports = [| nodes |];
      models = models_of [| nodes |];
      link_count = nodes;
      max_hops = 1;
      coords = [||];
    }
  else begin
    let spines = d in
    (* leaves 0..leaves-1 (d host ports + d up ports), then spines (one
       port per leaf) *)
    let ports =
      Array.init (leaves + spines) (fun i -> if i < leaves then d + spines else leaves)
    in
    {
      kind = Fat_tree { leaf_radix };
      shape = S_fat_tree { d; leaves };
      nodes;
      switch_ports = ports;
      models = models_of ports;
      link_count = nodes + (leaves * spines);
      max_hops = 3;
      coords = [||];
    }
  end

let torus ?dims ~nodes () =
  let dims = match dims with Some d -> d | None -> auto_dims nodes in
  checked (Torus { dims = Some dims }) ~nodes;
  let dx, dy, dz = dims in
  let ports = Array.make nodes 7 in
  (* each router owns its positive-direction link in every ring of size
     >= 2 (a ring of size 1 has no link in that dimension) *)
  let ring_links s = if s >= 2 then nodes else 0 in
  {
    kind = Torus { dims = Some dims };
    shape = S_torus { dx; dy; dz };
    nodes;
    switch_ports = ports;
    models = models_of ports;
    link_count = nodes + ring_links dx + ring_links dy + ring_links dz;
    max_hops = 1 + (dx / 2) + (dy / 2) + (dz / 2);
    coords =
      Array.init (3 * nodes) (fun j ->
          let i = j / 3 in
          match j mod 3 with 0 -> i mod dx | 1 -> i / dx mod dy | _ -> i / (dx * dy));
  }

let of_kind kind ~nodes =
  match kind with
  | Single -> single ~nodes
  | Fat_tree { leaf_radix } -> fat_tree ~leaf_radix ~nodes ()
  | Torus { dims } -> torus ?dims ~nodes ()

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

(* torus port numbering: 0 = host, then (+,-) per dimension *)
let port_plus dim = 1 + (2 * dim)
let port_minus dim = 2 + (2 * dim)

let route t ~src ~dst =
  if src < 0 || src >= t.nodes then invalid_arg "Topology.route: src out of range";
  if dst < 0 || dst >= t.nodes then invalid_arg "Topology.route: dst out of range";
  if src = dst then invalid_arg "Topology.route: src = dst";
  match t.shape with
  | S_single -> [| { h_switch = 0; h_in = src; h_out = dst } |]
  | S_fat_tree { d; leaves } ->
      let sl = src / d and dl = dst / d in
      if sl = dl then [| { h_switch = sl; h_in = src mod d; h_out = dst mod d } |]
      else
        let s = dst mod d in
        [|
          { h_switch = sl; h_in = src mod d; h_out = d + s };
          { h_switch = leaves + s; h_in = sl; h_out = dl };
          { h_switch = dl; h_in = d + s; h_out = dst mod d };
        |]
  | S_torus { dx; dy; dz } ->
      let sizes = [| dx; dy; dz |] in
      let strides = [| 1; dx; dx * dy |] in
      let coord i dim = i / strides.(dim) mod sizes.(dim) in
      let acc = ref [] in
      let cur = ref src and in_port = ref 0 in
      for dim = 0 to 2 do
        let s = sizes.(dim) in
        if s > 1 then begin
          let c = coord !cur dim and e = coord dst dim in
          let fwd = (e - c + s) mod s in
          if fwd <> 0 then begin
            (* shorter way around the ring; ties take the plus direction *)
            let plus = fwd <= s - fwd in
            let steps = if plus then fwd else s - fwd in
            for _ = 1 to steps do
              let c = coord !cur dim in
              let c' = if plus then (c + 1) mod s else (c + s - 1) mod s in
              acc :=
                {
                  h_switch = !cur;
                  h_in = !in_port;
                  h_out = (if plus then port_plus dim else port_minus dim);
                }
                :: !acc;
              cur := !cur + ((c' - c) * strides.(dim));
              in_port := (if plus then port_minus dim else port_plus dim)
            done
          end
        end
      done;
      acc := { h_switch = dst; h_in = !in_port; h_out = 0 } :: !acc;
      Array.of_list (List.rev !acc)

let hops t ~src ~dst = Array.length (route t ~src ~dst)

(* The same routes as [route], one hop at a time and allocating nothing:
   the fabric walks every frame's route through here. A torus hop moves
   one step along a ring by a coordinate-table lookup and a stride, with no
   division. *)
module Walk = struct
  type topo = t

  type t = {
    topo : topo;
    mutable switch : int;
    mutable in_port : int;
    mutable out_port : int;
    mutable last : bool;  (* the current hop is the route's final one *)
    mutable dst : int;
    (* torus: the ring being walked, its direction and the steps left on it
       after this hop; fat-tree: [dim] counts the hops taken and [left] is
       the destination's leaf *)
    mutable dim : int;
    mutable plus : bool;
    mutable left : int;
  }

  let create topo =
    { topo; switch = 0; in_port = 0; out_port = 0; last = true; dst = 0; dim = 0;
      plus = true; left = 0 }

  let switch w = w.switch
  let in_port w = w.in_port
  let out_port w = w.out_port

  let size w dim =
    match w.topo.shape with
    | S_torus { dx; dy; dz } -> if dim = 0 then dx else if dim = 1 then dy else dz
    | S_single | S_fat_tree _ -> 1

  let stride w dim =
    match w.topo.shape with
    | S_torus { dx; dy; _ } -> if dim = 0 then 1 else if dim = 1 then dx else dx * dy
    | S_single | S_fat_tree _ -> 1

  (* from router [w.switch], the first ring at or after [dim] on which the
     frame is not yet at [dst]'s coordinate; past the last, the exit hop *)
  let rec seek w dim =
    if dim > 2 then begin
      w.out_port <- 0;
      w.last <- true
    end
    else begin
      let s = size w dim in
      let coords = w.topo.coords in
      let c = coords.((3 * w.switch) + dim) and e = coords.((3 * w.dst) + dim) in
      let fwd = if e >= c then e - c else e - c + s in
      if fwd = 0 then seek w (dim + 1)
      else begin
        (* shorter way around the ring; ties take the plus direction *)
        let plus = fwd <= s - fwd in
        w.dim <- dim;
        w.plus <- plus;
        w.left <- (if plus then fwd else s - fwd);
        w.out_port <- (if plus then port_plus dim else port_minus dim)
      end
    end

  let start w ~src ~dst =
    let t = w.topo in
    if src < 0 || src >= t.nodes then invalid_arg "Topology.Walk.start: src out of range";
    if dst < 0 || dst >= t.nodes then invalid_arg "Topology.Walk.start: dst out of range";
    if src = dst then invalid_arg "Topology.Walk.start: src = dst";
    w.dst <- dst;
    w.last <- false;
    match t.shape with
    | S_single ->
        w.switch <- 0;
        w.in_port <- src;
        w.out_port <- dst;
        w.last <- true
    | S_fat_tree { d; _ } ->
        let sl = src / d and dl = dst / d in
        w.switch <- sl;
        w.in_port <- src - (sl * d);
        if sl = dl then begin
          w.out_port <- dst - (dl * d);
          w.last <- true
        end
        else begin
          w.out_port <- d + (dst - (dl * d));
          w.dim <- 0;
          w.left <- dl
        end
    | S_torus _ ->
        w.switch <- src;
        w.in_port <- 0;
        seek w 0

  let next w =
    if w.last then false
    else begin
      (match w.topo.shape with
      | S_single -> ()
      | S_fat_tree { d; leaves } ->
          (* [left] is the destination's leaf, and its port there picks the spine *)
          let port = w.dst - (w.left * d) in
          if w.dim = 0 then begin
            w.in_port <- w.switch;
            w.switch <- leaves + port;
            w.out_port <- w.left;
            w.dim <- 1
          end
          else begin
            w.switch <- w.left;
            w.in_port <- d + port;
            w.out_port <- port;
            w.last <- true
          end
      | S_torus _ ->
          let dim = w.dim and cur = w.switch in
          let s = size w dim and stride = stride w dim in
          let c = w.topo.coords.((3 * cur) + dim) in
          if w.plus then begin
            w.switch <- (if c = s - 1 then cur - ((s - 1) * stride) else cur + stride);
            w.in_port <- port_minus dim
          end
          else begin
            w.switch <- (if c = 0 then cur + ((s - 1) * stride) else cur - stride);
            w.in_port <- port_plus dim
          end;
          w.left <- w.left - 1;
          if w.left = 0 then seek w (dim + 1));
      true
    end
end

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let kind_to_string = function
  | Single -> "single"
  | Fat_tree { leaf_radix } -> Printf.sprintf "fat-tree:%d" leaf_radix
  | Torus { dims = None } -> "torus"
  | Torus { dims = Some (x, y, z) } -> Printf.sprintf "torus:%dx%dx%d" x y z

let kind_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "unknown topology %S (expected single, fat-tree, fat-tree:RADIX, torus or \
          torus:XxYxZ)"
         s)
  in
  let int_of s = int_of_string_opt (String.trim s) in
  match String.lowercase_ascii (String.trim s) with
  | "single" -> Ok Single
  | "fat-tree" | "fattree" -> Ok (Fat_tree { leaf_radix = 16 })
  | "torus" -> Ok (Torus { dims = None })
  | s -> (
      match String.index_opt s ':' with
      | None -> fail ()
      | Some i -> (
          let head = String.sub s 0 i and arg = String.sub s (i + 1) (String.length s - i - 1) in
          match head with
          | "fat-tree" | "fattree" -> (
              match int_of arg with
              | Some r -> Ok (Fat_tree { leaf_radix = r })
              | None -> fail ())
          | "torus" -> (
              match String.split_on_char 'x' arg with
              | [ a; b; c ] -> (
                  match (int_of a, int_of b, int_of c) with
                  | Some x, Some y, Some z -> Ok (Torus { dims = Some (x, y, z) })
                  | _ -> fail ())
              | _ -> fail ())
          | _ -> fail ()))

let describe t =
  match t.shape with
  | S_single -> Printf.sprintf "single %d-port switch, %d nodes" t.switch_ports.(0) t.nodes
  | S_fat_tree { d; leaves } ->
      if leaves = 1 then
        Printf.sprintf "fat-tree (degenerate: one %d-port leaf), %d nodes" t.switch_ports.(0)
          t.nodes
      else
        Printf.sprintf "fat-tree: %d leaves (%d hosts + %d spines each), %d nodes, %d links"
          leaves d d t.nodes t.link_count
  | S_torus { dx; dy; dz } ->
      Printf.sprintf "3d-torus %dx%dx%d, %d routers, %d links, dimension-order routing" dx dy
        dz t.nodes t.link_count
