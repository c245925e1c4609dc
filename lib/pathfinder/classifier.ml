(* The classification DAG, compiled to an indexed dispatch structure.

   Every branch out of a node compares one header field (offset/len/mask)
   against a value. Branches are grouped by their field *spec* — the
   (offset, len, mask) triple — and within a spec the children are indexed
   by expected value in a sorted array. Classifying at a node therefore
   costs one header read + one binary search per distinct spec, independent
   of how many sibling patterns hang off the node; with the common "many
   channels on one field" layout that is O(pattern depth) instead of
   O(patterns).

   The walk allocates nothing: a node's specs are an array scanned in
   insertion order (a node has one to three), the header is read through
   [Pattern.read_raw] without an option, and each accept entry carries its
   [Some action] result, built once at [add].

   Removal is eager: the accept entry is deleted from its leaf node when the
   handle is removed, so the DAG holds live accepts only — no tombstone
   table to consult on the classification hot path and nothing that grows
   without bound under install/uninstall churn. Interior structure shared
   with live patterns is retained (as the hardware did). *)

type 'a accept = { priority : int; handle : int; result : 'a option  (* Some action *) }

(* the branches of one node that read the header the same way: the field
   spec, its expected values in ascending order, and the child each one
   reaches *)
type 'a spec = {
  s_offset : int;
  s_len : int;
  s_mask : int;
  mutable values : int array;
  mutable children : 'a node array;  (* [children.(i)] is reached on [values.(i)] *)
}

and 'a node = {
  mutable specs : 'a spec array;  (* insertion order *)
  mutable accepts : 'a accept list;  (* sorted by priority; live entries only *)
}

type handle = int

(* one live pattern: the leaf node holding its accept entry, plus enough to
   re-run the reference linear matcher *)
type 'a entry = {
  e_node : 'a node;
  e_pattern : Pattern.t;
  e_priority : int;
  e_action : 'a;
}

type 'a t = {
  root : 'a node;
  mutable next_priority : int;
  mutable next_handle : int;
  entries : (int, 'a entry) Hashtbl.t;  (* live handles *)
  (* the walk's best accept so far; [None] between classifications *)
  mutable best_priority : int;
  mutable best : 'a option;
  mutable s_classifications : int;
  mutable s_matches : int;
  mutable s_probes : int;
}

type stats = { classifications : int; matches : int; probes : int }

let new_node () = { specs = [||]; accepts = [] }

let create () =
  {
    root = new_node ();
    next_priority = 0;
    next_handle = 0;
    entries = Hashtbl.create 16;
    best_priority = max_int;
    best = None;
    s_classifications = 0;
    s_matches = 0;
    s_probes = 0;
  }

(* index of [v] in [values.(lo .. hi - 1)] (sorted), or [-1 - p] where [p]
   is the position it would be inserted at *)
let rec search values v lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get values mid in
    if m = v then mid else if m < v then search values v (mid + 1) hi else search values v lo mid

let insert_at a i x =
  Array.init (Array.length a + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let spec_for node (f : Pattern.field) =
  let matching s =
    s.s_offset = f.Pattern.offset && s.s_len = f.Pattern.len && s.s_mask = f.Pattern.mask
  in
  match Array.find_opt matching node.specs with
  | Some s -> s
  | None ->
      let s =
        {
          s_offset = f.Pattern.offset;
          s_len = f.Pattern.len;
          s_mask = f.Pattern.mask;
          values = [||];
          children = [||];
        }
      in
      node.specs <- Array.append node.specs [| s |];
      s

let child_for spec value =
  let i = search spec.values value 0 (Array.length spec.values) in
  if i >= 0 then spec.children.(i)
  else begin
    let c = new_node () and p = -1 - i in
    spec.values <- insert_at spec.values p value;
    spec.children <- insert_at spec.children p c;
    c
  end

let add t pattern action =
  let priority = t.next_priority in
  t.next_priority <- priority + 1;
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let rec insert node = function
    | [] ->
        node.accepts <-
          List.merge
            (fun a b -> compare a.priority b.priority)
            node.accepts
            [ { priority; handle; result = Some action } ];
        node
    | f :: rest -> insert (child_for (spec_for node f) f.Pattern.value) rest
  in
  let leaf = insert t.root pattern in
  Hashtbl.replace t.entries handle
    { e_node = leaf; e_pattern = pattern; e_priority = priority; e_action = action };
  handle

(* Eager sweep: drop the accept entry from its leaf so classification never
   sees a dead pattern. Idempotent — a second removal finds no entry. *)
let remove t h =
  match Hashtbl.find_opt t.entries h with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.entries h;
      e.e_node.accepts <- List.filter (fun a -> a.handle <> h) e.e_node.accepts

(* Walk the DAG keeping the best (lowest priority number) accept. Every
   accept stored is live and each node's list is sorted, so only its head
   can improve on the best. *)
let rec walk t header node =
  (match node.accepts with
  | a :: _ when a.priority < t.best_priority ->
      t.best_priority <- a.priority;
      t.best <- a.result
  | _ -> ());
  let specs = node.specs in
  for i = 0 to Array.length specs - 1 do
    let s = Array.unsafe_get specs i in
    t.s_probes <- t.s_probes + 1;
    let v = Pattern.read_raw header ~offset:s.s_offset ~len:s.s_len ~mask:s.s_mask in
    if v >= 0 then begin
      let j = search s.values v 0 (Array.length s.values) in
      if j >= 0 then walk t header (Array.unsafe_get s.children j)
    end
  done

let classify t header =
  t.s_classifications <- t.s_classifications + 1;
  t.best_priority <- max_int;
  walk t header t.root;
  let best = t.best in
  (* cleared so a removed pattern's action is not kept alive here *)
  t.best <- None;
  (match best with Some _ -> t.s_matches <- t.s_matches + 1 | None -> ());
  best

(* Reference semantics: scan every live pattern with the naive matcher and
   keep the lowest-priority match. Deliberately O(patterns); kept for
   property tests and the classification microbenchmark. Does not touch the
   stats counters. *)
let classify_linear t header =
  let best = ref None in
  Hashtbl.iter
    (fun _h e ->
      match !best with
      | Some (p, _) when p <= e.e_priority -> ()
      | _ -> if Pattern.matches e.e_pattern header then best := Some (e.e_priority, e.e_action))
    t.entries;
  Option.map snd !best

let patterns t = Hashtbl.length t.entries

(* [f] folded over every child edge of [node] *)
let fold_children f acc node =
  Array.fold_left (fun acc s -> Array.fold_left f acc s.children) acc node.specs

let edges t =
  let rec count node = fold_children (fun acc child -> acc + 1 + count child) 0 node in
  count t.root

let accept_entries t =
  let rec count node =
    fold_children (fun acc child -> acc + count child) (List.length node.accepts) node
  in
  count t.root

let stats t =
  { classifications = t.s_classifications; matches = t.s_matches; probes = t.s_probes }
