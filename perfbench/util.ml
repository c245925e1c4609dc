(* Host clock, order statistics, JSON text, and the benchmark's own spans. *)

let now = Unix.gettimeofday

(* host CPU seconds this process has used, user and system *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The calibration kernel: 200k Hashtbl updates and a million short-lived
   list cells, so that it allocates, promotes and collects the way the
   simulator does. The host's other tenants slow a run by up to twice, for
   a second to a minute at a time, and they slow this kernel in step with
   the simulator (alike to within a few percent in tests on a 2-vCPU Xeon
   VM), while a plain integer loop barely slows. [calibrate ()] times it
   three times, each from a collected heap, and returns the fastest. *)
let calibrate () =
  let once () =
    Gc.compact ();
    let t0 = now () in
    let h = Hashtbl.create 16 in
    for i = 1 to 200_000 do
      Hashtbl.replace h ((i * 7919) land 0x3ffff) (i, float_of_int i)
    done;
    let l = ref [] in
    for i = 1 to 1_000_000 do
      l := (i, i) :: (if i land 1023 = 0 then [] else !l)
    done;
    ignore (Sys.opaque_identity (Hashtbl.length h + List.length !l));
    now () -. t0
  in
  List.fold_left Float.min Float.infinity (List.init 3 (fun _ -> once ()))

(* [calibrate ()] on a 2-vCPU Xeon VM at its quiet fast end: host times are
   reported as if the host ran at that speed *)
let calib_reference_s = 0.045

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* the median of the fastest quarter of [xs] (at least one value): the
   runs the host's other tenants slowed least *)
let fast_quarter = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      median (Array.to_list (Array.sub a 0 (max 1 (Array.length a / 4))))

(* nearest-rank quantile of an ascending array; 0. when empty *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* every digit the float carries; JSON has no NaN or infinity *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"
let json_numbers assoc = json_object (List.map (fun (k, v) -> (k, json_number v)) assoc)
let json_strings l = json_list (List.map json_string l)

(* ------------------------------------------------------------------ *)
(* Benchmark spans                                                      *)
(* ------------------------------------------------------------------ *)

(* Host wall-clock intervals the benchmark records around its own steps —
   preparation, every set-up, run and collection, every layer-kernel timing
   and every traced pass — each with the span enclosing it as parent. Kept
   in memory and written into the run's artifact when the benchmark ends. *)
type span = { id : int; parent : int; name : string; start_s : float; stop_s : float }

let origin = now ()
let recorded = ref []
let enclosing = ref (-1)
let next_id = ref 0

let span name f =
  let id = !next_id and parent = !enclosing in
  incr next_id;
  enclosing := id;
  let start_s = now () -. origin in
  Fun.protect
    ~finally:(fun () ->
      recorded := { id; parent; name; start_s; stop_s = now () -. origin } :: !recorded;
      enclosing := parent)
    f

let spans_json () =
  json_list
    (List.rev_map
       (fun s ->
         json_object
           [
             ("id", string_of_int s.id);
             ("parent", string_of_int s.parent);
             ("name", json_string s.name);
             ("start_s", json_number s.start_s);
             ("dur_s", json_number (s.stop_s -. s.start_s));
           ])
       !recorded)
