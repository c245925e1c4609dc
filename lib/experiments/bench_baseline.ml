type substrate_result = { ns_per_run : float; minor_words_per_run : float }
type experiment_result = { wall_s : float; metrics : (string * float) list }

type t = {
  schema : int;
  label : string;
  quick : bool;
  zero_alloc : string list;
  substrate : (string * substrate_result) list;
  experiments : (string * experiment_result) list;
}

let schema_version = 1
let calibration_name = "calibration: 200k Hashtbl updates + 1M list cells"

let make ~label ~quick ?(zero_alloc = []) ~substrate ~experiments () =
  { schema = schema_version; label; quick; zero_alloc; substrate; experiments }

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape = Cni_engine.Stats.json_escape

(* %.17g round-trips every finite double; non-finite values are not valid
   JSON numbers, so they are written as null and read back as nan *)
let float_lit v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then "null"
  else Printf.sprintf "%.17g" v

let to_json t =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"schema\": %d,\n" t.schema);
  add (Printf.sprintf "  \"label\": \"%s\",\n" (escape t.label));
  add (Printf.sprintf "  \"quick\": %b,\n" t.quick);
  add "  \"zero_alloc\": [";
  add (String.concat ", " (List.map (fun n -> Printf.sprintf "\"%s\"" (escape n)) t.zero_alloc));
  add "],\n";
  add "  \"substrate\": {\n";
  let n_sub = List.length t.substrate in
  List.iteri
    (fun i (name, r) ->
      add
        (Printf.sprintf "    \"%s\": { \"ns_per_run\": %s, \"minor_words_per_run\": %s }%s\n"
           (escape name) (float_lit r.ns_per_run)
           (float_lit r.minor_words_per_run)
           (if i < n_sub - 1 then "," else "")))
    t.substrate;
  add "  },\n";
  add "  \"experiments\": {\n";
  let n_exp = List.length t.experiments in
  List.iteri
    (fun i (name, r) ->
      add (Printf.sprintf "    \"%s\": {\n" (escape name));
      add (Printf.sprintf "      \"wall_s\": %s,\n" (float_lit r.wall_s));
      add "      \"metrics\": {";
      let n_m = List.length r.metrics in
      if n_m > 0 then begin
        add "\n";
        List.iteri
          (fun j (m, v) ->
            add
              (Printf.sprintf "        \"%s\": %s%s\n" (escape m) (float_lit v)
                 (if j < n_m - 1 then "," else "")))
          r.metrics;
        add "      "
      end;
      add "}\n";
      add (Printf.sprintf "    }%s\n" (if i < n_exp - 1 then "," else "")))
    t.experiments;
  add "  }\n";
  add "}\n";
  Buffer.contents buf

let save ~file t =
  let oc = open_out file in
  output_string oc (to_json t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Parser: the subset of JSON the writer above produces (plus arrays,   *)
(* so the format can grow without breaking old readers)                 *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* names here are ASCII; anything else degrades visibly *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?'
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Jobj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Jobj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Jlist []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Jlist (elems [])
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function Jobj kvs -> List.assoc_opt name kvs | _ -> None

let as_num = function Jnum f -> Some f | Jnull -> Some Float.nan | _ -> None

let of_json s =
  match parse_json s with
  | exception Parse_error msg -> Error msg
  | j -> (
      let num ctx v =
        match as_num v with
        | Some f -> f
        | None -> raise (Parse_error (ctx ^ ": expected a number"))
      in
      try
        let schema =
          match member "schema" j with
          | Some (Jnum f) -> int_of_float f
          | _ -> raise (Parse_error "missing \"schema\"")
        in
        if schema <> schema_version then
          Error (Printf.sprintf "unsupported schema version %d (want %d)" schema schema_version)
        else
          let label = match member "label" j with Some (Jstr l) -> l | _ -> "" in
          let quick = match member "quick" j with Some (Jbool b) -> b | _ -> false in
          let zero_alloc =
            match member "zero_alloc" j with
            | Some (Jlist l) ->
                List.filter_map (function Jstr s -> Some s | _ -> None) l
            | _ -> []
          in
          let substrate =
            match member "substrate" j with
            | Some (Jobj kvs) ->
                List.map
                  (fun (name, v) ->
                    let get k =
                      match member k v with
                      | Some x -> num (name ^ "." ^ k) x
                      | None -> raise (Parse_error (name ^ ": missing " ^ k))
                    in
                    ( name,
                      {
                        ns_per_run = get "ns_per_run";
                        minor_words_per_run = get "minor_words_per_run";
                      } ))
                  kvs
            | _ -> raise (Parse_error "missing \"substrate\" object")
          in
          let experiments =
            match member "experiments" j with
            | Some (Jobj kvs) ->
                List.map
                  (fun (name, v) ->
                    let wall_s =
                      match member "wall_s" v with
                      | Some x -> num (name ^ ".wall_s") x
                      | None -> raise (Parse_error (name ^ ": missing wall_s"))
                    in
                    let metrics =
                      match member "metrics" v with
                      | Some (Jobj ms) -> List.map (fun (m, x) -> (m, num m x)) ms
                      | _ -> []
                    in
                    (name, { wall_s; metrics }))
                  kvs
            | _ -> raise (Parse_error "missing \"experiments\" object")
          in
          Ok { schema; label; quick; zero_alloc; substrate; experiments }
      with Parse_error msg -> Error msg)

let load ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> of_json s

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type verdict = {
  regressions : string list;
  improvements : string list;
  notes : string list;
}

let ok v = v.regressions = []

(* below this many minor words/run a benchmark counts as allocation-free:
   OLS estimates wobble by a few words; a per-iteration allocation in a
   10k-op benchmark shows up as tens of thousands *)
let zero_alloc_eps = 64.0

(* words/run estimates are noisier than time under Bechamel's OLS (runs are
   discrete and GC-phase dependent), so the allocation gate fires only on
   multiplicative growth of this factor — the signature of a new
   per-operation allocation, far above estimator noise *)
let alloc_growth_factor = 1.75

(* experiment wall-clocks are single-shot measurements of multi-second runs
   on a possibly-shared machine, where ambient load routinely moves them by
   tens of percent — far beyond what the calibration anchor (measured once,
   at substrate time) can correct. They get their own, much looser gate — a
   backstop against catastrophic blowups (an accidental O(n^2), a debug
   loop left in) — while the tight [threshold] applies only to the
   OLS-estimated substrate times *)
let default_wall_threshold = 1.0

let compare ~baseline ~current ?(threshold = 0.15) ?(wall_threshold = default_wall_threshold)
    ?(min_ns = 1000.) ?(min_wall_s = 0.25) () =
  let regressions = ref [] and improvements = ref [] and notes = ref [] in
  let reg fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
  let imp fmt = Printf.ksprintf (fun s -> improvements := s :: !improvements) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* machine-speed normalisation: when both runs measured the calibration
     kernel, the ratio of the two estimates is the relative speed of the
     two machines, and baseline times are rescaled by it *)
  let scale =
    match
      ( List.assoc_opt calibration_name baseline.substrate,
        List.assoc_opt calibration_name current.substrate )
    with
    | Some b, Some c when b.ns_per_run > 0. && c.ns_per_run > 0. ->
        let s = c.ns_per_run /. b.ns_per_run in
        let s = Float.min 4.0 (Float.max 0.25 s) in
        if Float.abs (s -. 1.0) > 0.02 then
          note "machine-speed calibration: baseline times rescaled by %.2fx" s;
        s
    | _ -> 1.0
  in
  List.iter
    (fun (name, (b : substrate_result)) ->
      match List.assoc_opt name current.substrate with
      | None -> note "substrate %S: in baseline but not in this run" name
      | Some c when name = calibration_name -> ignore c (* the anchor is never gated *)
      | Some c ->
          let b_ns = b.ns_per_run *. scale in
          if c.ns_per_run > b_ns *. (1. +. threshold) && c.ns_per_run -. b_ns > min_ns then
            reg "substrate %S: time regressed %.1f -> %.1f ns/run (+%.0f%%, threshold %.0f%%)" name
              b_ns c.ns_per_run
              ((c.ns_per_run /. b_ns -. 1.) *. 100.)
              (threshold *. 100.)
          else if b_ns > min_ns && c.ns_per_run < b_ns *. (1. -. threshold) then
            imp "substrate %S: time improved %.1f -> %.1f ns/run (-%.0f%%)" name b_ns c.ns_per_run
              ((1. -. (c.ns_per_run /. b_ns)) *. 100.);
          if List.mem name baseline.zero_alloc && c.minor_words_per_run > zero_alloc_eps then
            reg
              "substrate %S: zero-alloc contract broken, %.1f -> %.1f minor words/run (must stay \
               ~0)"
              name b.minor_words_per_run c.minor_words_per_run
          else if
            b.minor_words_per_run > zero_alloc_eps
            && c.minor_words_per_run > b.minor_words_per_run *. alloc_growth_factor
          then
            reg "substrate %S: allocation regressed %.1f -> %.1f minor words/run (+%.0f%%)" name
              b.minor_words_per_run c.minor_words_per_run
              ((c.minor_words_per_run /. b.minor_words_per_run -. 1.) *. 100.)
          else if b.minor_words_per_run > zero_alloc_eps && c.minor_words_per_run <= zero_alloc_eps
          then
            imp "substrate %S: now allocation-free (was %.1f minor words/run)" name
              b.minor_words_per_run)
    baseline.substrate;
  if baseline.quick <> current.quick then
    note
      "baseline was recorded %s --quick but this run is %s: experiment wall-clock and metrics not \
       compared"
      (if baseline.quick then "with" else "without")
      (if current.quick then "with" else "without")
  else
    List.iter
      (fun (name, (b : experiment_result)) ->
        match List.assoc_opt name current.experiments with
        | None -> note "experiment %S: in baseline but not in this run" name
        | Some c ->
            (* a "faster machine" calibration reading must never tighten
               the loosest gate: rescale the wall baseline only upward (for
               genuinely slower machines), not downward *)
            let b_wall = b.wall_s *. Float.max scale 1.0 in
            if c.wall_s > b_wall *. (1. +. wall_threshold) && c.wall_s -. b_wall > min_wall_s then
              reg "experiment %S: wall-clock regressed %.2f -> %.2f s (+%.0f%%, threshold %.0f%%)"
                name b_wall c.wall_s
                ((c.wall_s /. b_wall -. 1.) *. 100.)
                (wall_threshold *. 100.)
            else if b_wall > min_wall_s && c.wall_s < b_wall *. (1. -. wall_threshold) then
              imp "experiment %S: wall-clock improved %.2f -> %.2f s (-%.0f%%)" name b_wall c.wall_s
                ((1. -. (c.wall_s /. b_wall)) *. 100.);
            List.iter
              (fun (m, bv) ->
                match List.assoc_opt m c.metrics with
                | None -> note "experiment %S: metric %S gone from this run" name m
                | Some cv ->
                    let both_nan = Float.is_nan bv && Float.is_nan cv in
                    let agree =
                      both_nan || bv = cv
                      || Float.abs (bv -. cv) <= 1e-9 *. Float.max (Float.abs bv) (Float.abs cv)
                    in
                    (* the simulator is bit-deterministic: metric drift means
                       the numerics changed and the baseline must be
                       regenerated deliberately *)
                    if not agree then
                      reg "experiment %S: deterministic metric %S drifted %.17g -> %.17g" name m bv
                        cv)
              b.metrics)
      baseline.experiments;
  {
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    notes = List.rev !notes;
  }

let pp_verdict ppf v =
  List.iter (fun s -> Format.fprintf ppf "REGRESSION  %s@." s) v.regressions;
  List.iter (fun s -> Format.fprintf ppf "improved    %s@." s) v.improvements;
  List.iter (fun s -> Format.fprintf ppf "note        %s@." s) v.notes;
  if ok v then
    Format.fprintf ppf "bench-compare: OK (%d improvement(s), %d note(s))@."
      (List.length v.improvements) (List.length v.notes)
  else Format.fprintf ppf "bench-compare: FAIL (%d regression(s))@." (List.length v.regressions)
