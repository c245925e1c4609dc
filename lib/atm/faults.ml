module Time = Cni_engine.Time
module Rng = Cni_engine.Rng

type window = { w_node : int; w_from : Time.t; w_upto : Time.t }

type node_fault = Crash of { scrub : bool } | Restart

type event = { e_at : Time.t; e_node : int; e_fault : node_fault }

type config = {
  seed : int;
  cell_loss : float;
  cell_corrupt : float;
  frame_drop : float;
  link_down : window list;
  schedule : event list;
}

let none =
  { seed = 42; cell_loss = 0.; cell_corrupt = 0.; frame_drop = 0.; link_down = [];
    schedule = [] }

let is_none c =
  c.cell_loss = 0. && c.cell_corrupt = 0. && c.frame_drop = 0. && c.link_down = []
  && c.schedule = []

let with_loss ?(seed = 42) p = { none with seed; cell_loss = p }

(* Normalization of link-down windows: per node, sort by start and merge
   overlapping or adjacent windows into one. Counters and down-time
   accounting over the normalized list cannot double-count an instant that
   two declared windows both cover. *)
let normalize_windows windows =
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun w ->
      let l = Option.value (Hashtbl.find_opt by_node w.w_node) ~default:[] in
      Hashtbl.replace by_node w.w_node (w :: l))
    windows;
  let nodes = Hashtbl.fold (fun n _ acc -> n :: acc) by_node [] in
  List.concat_map
    (fun node ->
      let ws =
        List.sort
          (fun a b -> compare (a.w_from, a.w_upto) (b.w_from, b.w_upto))
          (Hashtbl.find by_node node)
      in
      let rec merge = function
        | a :: b :: rest when b.w_from <= a.w_upto ->
            merge ({ a with w_upto = Time.max a.w_upto b.w_upto } :: rest)
        | a :: rest -> a :: merge rest
        | [] -> []
      in
      merge ws)
    (List.sort compare nodes)

type t = { cfg : config; windows : window list; rng : Rng.t }

let config t = t.cfg

type verdict = Pass | Corrupt of int | Lose_cells of int | Drop

(* Count the cells an independent per-cell event hits. Disabled classes
   consume no draws; the same config replays the same stream. *)
let hit_cells t p ~cells =
  if p <= 0. then 0
  else begin
    let n = ref 0 in
    for _ = 1 to cells do
      if Rng.float t.rng < p then incr n
    done;
    !n
  end

let judge t ~cells =
  if t.cfg.frame_drop > 0. && Rng.float t.rng < t.cfg.frame_drop then Drop
  else
    match hit_cells t t.cfg.cell_loss ~cells with
    | n when n > 0 -> Lose_cells n
    | _ -> (
        match hit_cells t t.cfg.cell_corrupt ~cells with
        | n when n > 0 -> Corrupt n
        | _ -> Pass)

(* a plain recursion, not [List.exists]: the fabric asks on every frame,
   and a closure over [node] and [now] would be allocated each time *)
let rec down_in windows ~node ~now =
  match windows with
  | [] -> false
  | w :: rest ->
      (w.w_node = node && now >= w.w_from && now < w.w_upto) || down_in rest ~node ~now

let link_down t ~node ~now = down_in t.windows ~node ~now

(* ------------------------------------------------------------------ *)
(* Node-fault schedule                                                 *)
(* ------------------------------------------------------------------ *)

(* Declared order breaks time ties, so a stable sort keeps "crash then
   restart at the same instant" an error the validator can report instead
   of a silent reordering. *)
let sorted_schedule cfg =
  List.stable_sort (fun a b -> compare a.e_at b.e_at) cfg.schedule

(* Every rule a config breaks, in declaration order. With [Some nodes] the
   node ids are also held to the cluster's size; with [None] only to be
   >= 0. *)
let problems nodes cfg =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let prob name p = if not (p >= 0. && p <= 1.) then err "%s %g outside [0,1]" name p in
  let node_ok n = n >= 0 && match nodes with Some k -> n < k | None -> true in
  let cluster = match nodes with Some k -> Printf.sprintf " (cluster has %d)" k | None -> "" in
  prob "loss" cfg.cell_loss;
  prob "corrupt" cfg.cell_corrupt;
  prob "drop" cfg.frame_drop;
  List.iter
    (fun w ->
      if not (node_ok w.w_node) then
        err "link-down window names node %d%s" w.w_node cluster;
      if w.w_from > w.w_upto then
        err "link-down window for node %d is reversed (start > stop)" w.w_node
      else if w.w_from = w.w_upto then
        err "link-down window for node %d is empty" w.w_node)
    cfg.link_down;
  (* replay the schedule chronologically, tracking each node's liveness *)
  let crashed = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if not (node_ok e.e_node) then
        err "schedule event at %.0f us names node %d%s" (Time.to_us_float e.e_at) e.e_node
          cluster
      else
        match e.e_fault with
        | Crash _ ->
            if Hashtbl.mem crashed e.e_node then
              err "node %d crashes at %.0f us while already crashed"
                e.e_node (Time.to_us_float e.e_at)
            else Hashtbl.replace crashed e.e_node e.e_at
        | Restart -> (
            match Hashtbl.find_opt crashed e.e_node with
            | None ->
                err "node %d restarts at %.0f us without a prior crash"
                  e.e_node (Time.to_us_float e.e_at)
            | Some at when at = e.e_at ->
                err "node %d restarts at %.0f us, the same instant it crashes"
                  e.e_node (Time.to_us_float e.e_at)
            | Some _ -> Hashtbl.remove crashed e.e_node))
    (sorted_schedule cfg);
  List.rev !errors

let validate ~nodes cfg = match problems (Some nodes) cfg with [] -> Ok () | es -> Error es

let create cfg =
  match problems None cfg with
  | [] -> { cfg; windows = normalize_windows cfg.link_down; rng = Rng.create ~seed:cfg.seed }
  | es -> invalid_arg ("Faults.create: " ^ String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

(* Each directive and the arguments it takes, in the order [config_to_string]
   writes them. *)
let usage =
  [
    ("seed", "SEED");
    ("loss", "P");
    ("corrupt", "P");
    ("drop", "P");
    ("down", "NODE FROM_US UPTO_US");
    ("crash", "NODE AT_US [scrub]");
    ("restart", "NODE AT_US");
  ]

let directive cfg word args =
  let ( let* ) = Result.bind in
  let int_of s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "expected an integer, got %S" s)
  in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "expected a number, got %S" s)
  in
  let event n at e_fault =
    let* e_node = int_of n in
    let* at_us = int_of at in
    Ok { cfg with schedule = cfg.schedule @ [ { e_node; e_at = Time.us at_us; e_fault } ] }
  in
  match (word, args) with
  | "seed", [ s ] ->
      let* seed = int_of s in
      Ok { cfg with seed }
  | "loss", [ p ] ->
      let* cell_loss = float_of p in
      Ok { cfg with cell_loss }
  | "corrupt", [ p ] ->
      let* cell_corrupt = float_of p in
      Ok { cfg with cell_corrupt }
  | "drop", [ p ] ->
      let* frame_drop = float_of p in
      Ok { cfg with frame_drop }
  | "down", [ n; a; b ] ->
      let* w_node = int_of n in
      let* from_us = int_of a in
      let* upto_us = int_of b in
      let w = { w_node; w_from = Time.us from_us; w_upto = Time.us upto_us } in
      Ok { cfg with link_down = cfg.link_down @ [ w ] }
  | "crash", [ n; at ] -> event n at (Crash { scrub = false })
  | "crash", [ n; at; "scrub" ] -> event n at (Crash { scrub = true })
  | "restart", [ n; at ] -> event n at Restart
  | _ -> (
      match List.assoc_opt word usage with
      | Some args -> Error ("expected " ^ args)
      | None ->
          Error
            (Printf.sprintf "unknown directive (expected %s)"
               (String.concat ", " (List.map fst usage))))

let config_of_string text =
  let fields line =
    let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (( <> ) "")
  in
  let rec go lineno cfg = function
    | [] -> Ok cfg
    | line :: rest -> (
        match fields line with
        | [] -> go (lineno + 1) cfg rest
        | word :: args -> (
            match directive cfg word args with
            | Ok cfg -> go (lineno + 1) cfg rest
            | Error e -> Error (Printf.sprintf "line %d: %s: %s" lineno word e)))
  in
  go 1 none (String.split_on_char '\n' text)

let config_to_string cfg =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let us t = Time.to_ps t / 1_000_000 in
  if cfg.seed <> none.seed then line "seed %d" cfg.seed;
  if cfg.cell_loss <> 0. then line "loss %.17g" cfg.cell_loss;
  if cfg.cell_corrupt <> 0. then line "corrupt %.17g" cfg.cell_corrupt;
  if cfg.frame_drop <> 0. then line "drop %.17g" cfg.frame_drop;
  List.iter (fun w -> line "down %d %d %d" w.w_node (us w.w_from) (us w.w_upto)) cfg.link_down;
  List.iter
    (fun e ->
      match e.e_fault with
      | Crash { scrub } ->
          line "crash %d %d%s" e.e_node (us e.e_at) (if scrub then " scrub" else "")
      | Restart -> line "restart %d %d" e.e_node (us e.e_at))
    cfg.schedule;
  Buffer.contents b
