(* Structured tracing: a fixed-capacity ring buffer of typed records with
   per-category gating and human/JSONL/CSV sinks.

   The hot-path contract is that a disabled emit performs no allocation: all
   arguments are immediates or pre-existing strings, and the record is only
   constructed after the category check passes. *)

type category = Engine | Nic | Dsm | Atm | App

let categories = [ Engine; Nic; Dsm; Atm; App ]
let cat_index = function Engine -> 0 | Nic -> 1 | Dsm -> 2 | Atm -> 3 | App -> 4

let category_name = function
  | Engine -> "engine"
  | Nic -> "nic"
  | Dsm -> "dsm"
  | Atm -> "atm"
  | App -> "app"

let category_of_name = function
  | "engine" -> Some Engine
  | "nic" -> Some Nic
  | "dsm" -> Some Dsm
  | "atm" -> Some Atm
  | "app" -> Some App
  | _ -> None

type event = Point | Span_begin | Span_end

let event_name = function Point -> "point" | Span_begin -> "begin" | Span_end -> "end"

type record = {
  t_ps : int;
  node : int;
  category : category;
  event : event;
  label : string;
  payload : int;
}

(* ------------------------------------------------------------------ *)
(* Gating                                                              *)
(* ------------------------------------------------------------------ *)

let enabled = ref false
let all_mask = 0b11111
let mask = ref all_mask
let enabled_cat c = !enabled && !mask land (1 lsl cat_index c) <> 0

let enable ?(cats = categories) () =
  mask := List.fold_left (fun m c -> m lor (1 lsl cat_index c)) 0 cats;
  enabled := true

let disable () =
  enabled := false;
  mask := all_mask

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let default_capacity = 65536

let dummy =
  { t_ps = 0; node = -1; category = Engine; event = Point; label = ""; payload = 0 }

let cap = ref default_capacity
let buf : record array ref = ref [||]
let head = ref 0 (* next write index *)
let emitted_total = ref 0

let capacity () = !cap

let clear () =
  buf := [||];
  head := 0;
  emitted_total := 0

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: need a positive capacity";
  cap := n;
  clear ()

let length () = Stdlib.min !emitted_total !cap
let emitted () = !emitted_total
let dropped () = !emitted_total - length ()

let push r =
  if Array.length !buf = 0 then buf := Array.make !cap dummy;
  let b = !buf in
  b.(!head) <- r;
  head := (!head + 1) mod Array.length b;
  incr emitted_total

let record ~t_ps ~node cat ev ~label ~payload =
  if enabled_cat cat then
    push { t_ps; node; category = cat; event = ev; label; payload }

let emit ~t_ps ~node cat ~label ~payload = record ~t_ps ~node cat Point ~label ~payload
let span_begin ~t_ps ~node cat ~label ~payload = record ~t_ps ~node cat Span_begin ~label ~payload
let span_end ~t_ps ~node cat ~label ~payload = record ~t_ps ~node cat Span_end ~label ~payload

let iter f =
  let n = length () in
  if n > 0 then begin
    let b = !buf in
    let start = if !emitted_total <= !cap then 0 else !head in
    for i = 0 to n - 1 do
      f b.((start + i) mod Array.length b)
    done
  end

let records () =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Span pairing                                                        *)
(* ------------------------------------------------------------------ *)

type span = {
  span_node : int;
  span_category : category;
  span_label : string;
  t_start_ps : int;
  duration_ps : int;
}

(* Pair each [Span_end] with the most recent unmatched [Span_begin] sharing
   (node, category, label); unmatched begins (still open when the buffer was
   read, or whose begin was overwritten) are ignored. *)
let spans () =
  let open_spans : (int * int * string, int list) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref [] in
  iter (fun r ->
      let key = (r.node, cat_index r.category, r.label) in
      match r.event with
      | Point -> ()
      | Span_begin ->
          let stack = Option.value (Hashtbl.find_opt open_spans key) ~default:[] in
          Hashtbl.replace open_spans key (r.t_ps :: stack)
      | Span_end -> (
          match Hashtbl.find_opt open_spans key with
          | Some (t0 :: rest) ->
              Hashtbl.replace open_spans key rest;
              acc :=
                {
                  span_node = r.node;
                  span_category = r.category;
                  span_label = r.label;
                  t_start_ps = t0;
                  duration_ps = r.t_ps - t0;
                }
                :: !acc
          | Some [] | None -> ()));
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let pp_record fmt r =
  Format.fprintf fmt "[%a] n%d %s %s%s payload=%d" Time.pp (Time.ps r.t_ps) r.node
    (category_name r.category) r.label
    (match r.event with Point -> "" | Span_begin -> " begin" | Span_end -> " end")
    r.payload

let write_human oc =
  let fmt = Format.formatter_of_out_channel oc in
  iter (fun r -> Format.fprintf fmt "%a@." pp_record r)

let write_jsonl oc =
  iter (fun r ->
      Printf.fprintf oc
        "{\"t_ps\":%d,\"node\":%d,\"category\":\"%s\",\"event\":\"%s\",\"label\":\"%s\",\"payload\":%d}\n"
        r.t_ps r.node (category_name r.category) (event_name r.event) (Stats.json_escape r.label)
        r.payload)

let write_csv oc =
  output_string oc "t_ps,node,category,event,label,payload\n";
  iter (fun r ->
      Printf.fprintf oc "%d,%d,%s,%s,%s,%d\n" r.t_ps r.node (category_name r.category)
        (event_name r.event) r.label r.payload)
