open Aih_ir

type interval = { lo : int; hi : int }

type reason =
  | Program_empty
  | Program_too_long of int
  | Bad_segment of int
  | Bad_inputs of int
  | Bad_register of reg
  | Bad_branch_target of int
  | Falls_off_end
  | Bad_relocation of int
  | Immediate_too_wide of int
  | Unbounded_back_edge of int
  | Improper_loop_nesting of int
  | Jump_into_loop of int
  | Loop_bound_invalid of int
  | Loop_counter_clobbered of reg
  | Loop_counter_negative of reg
  | Uninitialized_register of reg
  | Load_out_of_segment of interval
  | Store_out_of_segment of interval
  | Division_by_zero
  | Shift_out_of_range
  | Wcet_exceeded of int
  | Bad_stream_decl of int
  | View_out_of_bounds of interval
  | Scratch_out_of_bounds of interval
  | Line_rate_exceeded of { budget : int; wcet : int }

type reject = { rj_pc : int; rj_reason : reason; rj_regs : string }
type cert = { code_bytes : int; wcet_nic_cycles : int; wcet_per_byte_milli : int }

let reason_name = function
  | Program_empty -> "program-empty"
  | Program_too_long _ -> "program-too-long"
  | Bad_segment _ -> "bad-segment"
  | Bad_inputs _ -> "bad-inputs"
  | Bad_register _ -> "bad-register"
  | Bad_branch_target _ -> "bad-branch-target"
  | Falls_off_end -> "falls-off-end"
  | Bad_relocation _ -> "bad-relocation"
  | Immediate_too_wide _ -> "immediate-too-wide"
  | Unbounded_back_edge _ -> "unbounded-back-edge"
  | Improper_loop_nesting _ -> "improper-loop-nesting"
  | Jump_into_loop _ -> "jump-into-loop"
  | Loop_bound_invalid _ -> "loop-bound-invalid"
  | Loop_counter_clobbered _ -> "loop-counter-clobbered"
  | Loop_counter_negative _ -> "loop-counter-negative"
  | Uninitialized_register _ -> "uninitialized-register"
  | Load_out_of_segment _ -> "out-of-segment-load"
  | Store_out_of_segment _ -> "out-of-segment-store"
  | Division_by_zero -> "division-by-zero"
  | Shift_out_of_range -> "shift-out-of-range"
  | Wcet_exceeded _ -> "wcet-exceeded"
  | Bad_stream_decl _ -> "bad-stream-decl"
  | View_out_of_bounds _ -> "out-of-view-load"
  | Scratch_out_of_bounds _ -> "out-of-scratch"
  | Line_rate_exceeded _ -> "line-rate-exceeded"

let pp_reason fmt r =
  match r with
  | Program_empty -> Format.fprintf fmt "program has no instructions"
  | Program_too_long n -> Format.fprintf fmt "program of %d instructions exceeds the 4096 cap" n
  | Bad_segment w -> Format.fprintf fmt "segment of %d words outside 0..65536" w
  | Bad_inputs n -> Format.fprintf fmt "declared input count %d outside 0..%d" n nregs
  | Bad_register r -> Format.fprintf fmt "register r%d does not exist" r
  | Bad_branch_target t -> Format.fprintf fmt "branch target %d outside the program" t
  | Falls_off_end -> Format.fprintf fmt "control can fall off the end of the program"
  | Bad_relocation pc -> Format.fprintf fmt "relocation entry %d is not an in-segment Const" pc
  | Immediate_too_wide v -> Format.fprintf fmt "immediate %d does not fit a 32-bit field" v
  | Unbounded_back_edge t -> Format.fprintf fmt "back edge to %d, which is not a Loop header" t
  | Improper_loop_nesting h -> Format.fprintf fmt "loop region at %d overlaps another region" h
  | Jump_into_loop t -> Format.fprintf fmt "jump into the middle of the loop body at %d" t
  | Loop_bound_invalid l -> Format.fprintf fmt "loop limit %d outside 1..65535" l
  | Loop_counter_clobbered r -> Format.fprintf fmt "loop body writes its own counter r%d" r
  | Loop_counter_negative r -> Format.fprintf fmt "loop counter r%d may enter below zero" r
  | Uninitialized_register r -> Format.fprintf fmt "reads r%d, which may be uninitialized" r
  | Load_out_of_segment i -> Format.fprintf fmt "load address may reach [%d,%d]" i.lo i.hi
  | Store_out_of_segment i -> Format.fprintf fmt "store address may reach [%d,%d]" i.lo i.hi
  | Division_by_zero -> Format.fprintf fmt "divisor may be zero"
  | Shift_out_of_range -> Format.fprintf fmt "shift count may leave 0..62"
  | Wcet_exceeded w -> Format.fprintf fmt "worst case of %d NIC cycles exceeds the budget" w
  | Bad_stream_decl v -> Format.fprintf fmt "streaming declaration value %d is out of range" v
  | View_out_of_bounds i -> Format.fprintf fmt "view load may reach [%d,%d]" i.lo i.hi
  | Scratch_out_of_bounds i -> Format.fprintf fmt "scratch access may reach [%d,%d]" i.lo i.hi
  | Line_rate_exceeded { budget; wcet } ->
      Format.fprintf fmt
        "activation worst case of %d NIC cycles misses the line-rate budget of %d by %d" wcet
        budget (wcet - budget)

let explain rj =
  Format.asprintf "pc=%d (%s): %a; regs: %s" rj.rj_pc (reason_name rj.rj_reason) pp_reason
    rj.rj_reason rj.rj_regs

let explain_all rjs = String.concat "; " (List.map explain rjs)

(* ------------------------------------------------------------------ *)
(* Interval domain                                                     *)
(* ------------------------------------------------------------------ *)

(* Bot = possibly-uninitialized (join-absorbing: a register only counts as
   written when every path wrote it). *)
type aval = Bot | Iv of interval

(* Saturation bounds well clear of both 32-bit immediates and segment
   sizes; arithmetic clamps here so widened states stay finite. *)
let wmin = -(1 lsl 40)
let wmax = 1 lsl 40
let sat v = if v < wmin then wmin else if v > wmax then wmax else v
let iv lo hi = Iv { lo; hi }
let top = { lo = wmin; hi = wmax }

let mul_sat a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then if a > 0 = (b > 0) then wmax else wmin else sat p

let of4 a b c d = iv (min (min a b) (min c d)) (max (max a b) (max c d))

(* smallest 2^k - 1 >= v (v >= 0): the bit-mask upper bound for or/xor *)
let ceil_mask v =
  let rec go m = if m >= v then m else go ((m * 2) + 1) in
  go 0

let shl_one x s = mul_sat x (1 lsl s)

exception Rej of int * reason (* pc, reason *)

let binop_iv pc op x y =
  match op with
  | Add -> iv (sat (x.lo + y.lo)) (sat (x.hi + y.hi))
  | Sub -> iv (sat (x.lo - y.hi)) (sat (x.hi - y.lo))
  | Mul -> of4 (mul_sat x.lo y.lo) (mul_sat x.lo y.hi) (mul_sat x.hi y.lo) (mul_sat x.hi y.hi)
  | Div ->
      if y.lo <= 0 && y.hi >= 0 then raise (Rej (pc, Division_by_zero));
      of4 (x.lo / y.lo) (x.lo / y.hi) (x.hi / y.lo) (x.hi / y.hi)
  | Rem ->
      if y.lo <= 0 && y.hi >= 0 then raise (Rej (pc, Division_by_zero));
      (* |x rem y| <= min (|y| - 1) |x|; sign follows the dividend *)
      let m = max (abs y.lo) (abs y.hi) - 1 in
      let mag = min m (max (abs x.lo) (abs x.hi)) in
      iv (if x.lo >= 0 then 0 else -mag) (if x.hi <= 0 then 0 else mag)
  | And ->
      (* x land m with m >= 0 clears bits: result in [0, m] *)
      if x.lo >= 0 && y.lo >= 0 then iv 0 (min x.hi y.hi)
      else if x.lo >= 0 then iv 0 x.hi
      else if y.lo >= 0 then iv 0 y.hi
      else Iv top
  | Or | Xor ->
      if x.lo >= 0 && y.lo >= 0 then iv 0 (sat (ceil_mask (max x.hi y.hi))) else Iv top
  | Shl ->
      if y.lo < 0 || y.hi > 62 then raise (Rej (pc, Shift_out_of_range));
      of4 (shl_one x.lo y.lo) (shl_one x.lo y.hi) (shl_one x.hi y.lo) (shl_one x.hi y.hi)
  | Shr ->
      if y.lo < 0 || y.hi > 62 then raise (Rej (pc, Shift_out_of_range));
      of4 (x.lo asr y.lo) (x.lo asr y.hi) (x.hi asr y.lo) (x.hi asr y.hi)

let meet x y =
  let lo = max x.lo y.lo and hi = min x.hi y.hi in
  if lo > hi then None else Some { lo; hi }

let swap_cmp = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
let negate_cmp = function Eq -> Ne | Ne -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

(* the interval of x under the assumption "x c y" *)
let refine_x c x y =
  match c with
  | Eq -> meet x y
  | Ne ->
      if y.lo = y.hi then
        let k = y.lo in
        if x.lo = k && x.hi = k then None
        else if x.lo = k then Some { lo = x.lo + 1; hi = x.hi }
        else if x.hi = k then Some { lo = x.lo; hi = x.hi - 1 }
        else Some x
      else Some x
  | Lt -> meet x { lo = wmin; hi = y.hi - 1 }
  | Le -> meet x { lo = wmin; hi = y.hi }
  | Gt -> meet x { lo = y.lo + 1; hi = wmax }
  | Ge -> meet x { lo = y.lo; hi = wmax }

let refine_y c x y = refine_x (swap_cmp c) y x

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_val = function
  | Bot -> "?"
  | Iv i -> if i.lo <= wmin && i.hi >= wmax then "T" else Printf.sprintf "[%d,%d]" i.lo i.hi

let render_state = function
  | None -> "(unreached)"
  | Some st ->
      String.concat " "
        (List.mapi (fun i v -> Printf.sprintf "r%d=%s" i (render_val v)) (Array.to_list st))

(* ------------------------------------------------------------------ *)
(* Structure: registers, targets, relocations, loops, WCET             *)
(* ------------------------------------------------------------------ *)

let max_code = 4096
let max_seg = 65536
let max_limit = 65535
let fits32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let regs_of = function
  | Const _ -> []
  | Mov (rd, rs) -> [ rd; rs ]
  | Bin (_, rd, rs, rt) -> [ rd; rs; rt ]
  | Bini (_, rd, rs, _) -> [ rd; rs ]
  | Load (rd, rs, _) | Ldv (rd, rs, _) | Lds (rd, rs, _) -> [ rd; rs ]
  | Store (rsrc, rbase, _) | Sts (rsrc, rbase, _) -> [ rsrc; rbase ]
  | Br (_, rs, rt, _) -> [ rs; rt ]
  | Bri (_, rs, _, _) -> [ rs ]
  | Jmp _ -> []
  | Loop { counter; _ } -> [ counter ]
  | Send { dst; kind; obj; value } -> [ dst; kind; obj; value ]
  | Wake { seq; value } -> [ seq; value ]
  | Halt -> []

let imms_of = function
  | Const (_, v) -> [ v ]
  | Bini (_, _, _, imm) -> [ imm ]
  | Load (_, _, off) | Store (_, _, off) | Ldv (_, _, off) | Lds (_, _, off) | Sts (_, _, off) ->
      [ off ]
  | _ -> []

(* targets an instruction can transfer control to, besides fall-through *)
let jump_targets = function
  | Br (_, _, _, tgt) | Bri (_, _, _, tgt) | Jmp tgt -> [ tgt ]
  | Loop { exit; _ } -> [ exit ]
  | _ -> []

let falls_through = function Jmp _ | Halt -> false | _ -> true

(* the register an instruction writes, if any *)
let writes = function
  | Const (rd, _)
  | Mov (rd, _)
  | Bin (_, rd, _, _)
  | Bini (_, rd, _, _)
  | Load (rd, _, _)
  | Ldv (rd, _, _)
  | Lds (rd, _, _) ->
      Some rd
  | Loop { counter; _ } -> Some counter
  | _ -> None

(* all successor pcs (fall-through included) *)
let successors pc ins =
  let t = jump_targets ins in
  if falls_through ins then (pc + 1) :: t else t

(* Structural checks collect every independent violation (the Faults /
   Scenario validate convention) instead of stopping at the first: each
   entry is (pc, reason), later sorted into program order. *)
let max_view = 16

let collect_structure p =
  let errs = ref [] in
  let bad pc reason = errs := (pc, reason) :: !errs in
  let n = Array.length p.code in
  if n = 0 then bad 0 Program_empty;
  if n > max_code then bad 0 (Program_too_long n);
  if p.seg_words < 0 || p.seg_words > max_seg then bad 0 (Bad_segment p.seg_words);
  if p.inputs < 0 || p.inputs > nregs then bad 0 (Bad_inputs p.inputs);
  if p.scratch_words < 0 || p.scratch_words > max_seg then bad 0 (Bad_stream_decl p.scratch_words);
  (match p.hkind with
  | Episode -> ()
  | Header { view_words } ->
      if view_words < 1 || view_words > max_view then bad 0 (Bad_stream_decl view_words)
  | Payload { chunk_words; max_chunks } ->
      if chunk_words < 1 || chunk_words > max_view then bad 0 (Bad_stream_decl chunk_words);
      if max_chunks < 1 || max_chunks > max_limit then bad 0 (Bad_stream_decl max_chunks);
      (* streaming dispatch always seeds r0 = chunk index, r1 = valid words *)
      if p.inputs < 2 then bad 0 (Bad_stream_decl p.inputs));
  Array.iteri
    (fun pc ins ->
      List.iter (fun r -> if r < 0 || r >= nregs then bad pc (Bad_register r)) (regs_of ins);
      List.iter (fun v -> if not (fits32 v) then bad pc (Immediate_too_wide v)) (imms_of ins);
      List.iter (fun t -> if t < 0 || t >= n then bad pc (Bad_branch_target t)) (jump_targets ins);
      (match ins with
      | Loop { limit; _ } ->
          if limit < 1 || limit > max_limit then bad pc (Loop_bound_invalid limit)
      | _ -> ());
      if falls_through ins && pc + 1 >= n then bad pc Falls_off_end)
    p.code;
  List.rev !errs

let collect_relocs p =
  let errs = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun pc ->
      if pc < 0 || pc >= Array.length p.code then errs := (0, Bad_relocation pc) :: !errs
      else if Hashtbl.mem seen pc then errs := (pc, Bad_relocation pc) :: !errs
      else begin
        Hashtbl.replace seen pc ();
        match p.code.(pc) with
        | Const (_, v) when v >= 0 && v < p.seg_words -> ()
        | _ -> errs := (pc, Bad_relocation pc) :: !errs
      end)
    p.relocs;
  List.rev !errs

(* Back edges must target Loop headers; each header owns at most one back
   edge; regions nest; nothing jumps into a region from outside; bodies
   leave their counter alone. Returns the region list (header, back-edge
   pc, limit). *)
let check_loops p =
  let n = Array.length p.code in
  let regions = ref [] in
  for pc = 0 to n - 1 do
    List.iter
      (fun t ->
        if t <= pc then
          match p.code.(t) with
          | Loop { limit; _ } ->
              if List.exists (fun (h, _, _) -> h = t) !regions then
                raise (Rej (pc, Unbounded_back_edge t));
              regions := (t, pc, limit) :: !regions
          | _ -> raise (Rej (pc, Unbounded_back_edge t)))
      (successors pc p.code.(pc))
  done;
  let regions = List.sort compare !regions in
  (* proper nesting: for h1 < h2, either disjoint or (h2, b2) inside *)
  List.iter
    (fun (h1, b1, _) ->
      List.iter
        (fun (h2, b2, _) ->
          if h1 < h2 && h2 <= b1 && b2 > b1 then raise (Rej (h2, Improper_loop_nesting h2)))
        regions)
    regions;
  (* sideways entry: an edge from outside [h, b] into (h, b] *)
  for pc = 0 to n - 1 do
    List.iter
      (fun t ->
        List.iter
          (fun (h, b, _) ->
            if t > h && t <= b && (pc < h || pc > b) then raise (Rej (pc, Jump_into_loop t)))
          regions)
      (successors pc p.code.(pc))
  done;
  (* counter stability inside the body *)
  List.iter
    (fun (h, b, _) ->
      let counter = match p.code.(h) with Loop { counter; _ } -> counter | _ -> assert false in
      for pc = h + 1 to b do
        match writes p.code.(pc) with
        | Some r when r = counter -> raise (Rej (pc, Loop_counter_clobbered counter))
        | _ -> ()
      done)
    regions;
  regions

(* Sum of instruction cycles, each weighted by the product of the enclosing
   loop limits (the header itself runs limit + 1 times per entry: limit
   iterations plus the final exit test). *)
let compute_wcet p regions =
  let n = Array.length p.code in
  let cap = 1 lsl 50 in
  let total = ref 0 in
  for pc = 0 to n - 1 do
    let m = ref 1 in
    List.iter
      (fun (h, b, limit) ->
        if pc = h then m := min cap (!m * (limit + 1))
        else if pc > h && pc <= b then m := min cap (!m * limit))
      regions;
    total := min cap (!total + (instr_cycles p.code.(pc) * !m))
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Abstract interpretation                                             *)
(* ------------------------------------------------------------------ *)

(* joins at one pc before unstable bounds are widened to the saturation
   limits (keeps the fixpoint small even for limit-65535 loops). Widening
   applies only at Loop headers: every cycle goes through one (check_loops
   already rejected any other back edge), so the fixpoint still terminates,
   and the header's own transfer immediately re-narrows the fall-through to
   [1 .. limit] — body states never see the widened bound. The threshold
   must cover a register that ratchets by a constant per iteration of a
   small loop (the slot-scan idiom advances a candidate pointer each pass,
   several changed joins per iteration over a 16-slot table): below it such
   registers widen to the saturation bound and in-segment proofs relying on
   them fail. *)
let widen_threshold = 64

let interpret p states =
  let n = Array.length p.code in
  let widen_count = Array.make n 0 in
  let work = Queue.create () in
  let schedule pc st =
    match states.(pc) with
    | None ->
        states.(pc) <- Some (Array.copy st);
        Queue.add pc work
    | Some old ->
        let changed = ref false in
        let is_header = match p.code.(pc) with Aih_ir.Loop _ -> true | _ -> false in
        let widen = is_header && widen_count.(pc) >= widen_threshold in
        let joined =
          Array.mapi
            (fun i ov ->
              match (ov, st.(i)) with
              | Bot, _ | _, Bot -> if ov = Bot then ov else (changed := true; Bot)
              | Iv a, Iv b ->
                  let lo = min a.lo b.lo and hi = max a.hi b.hi in
                  if lo = a.lo && hi = a.hi then ov
                  else begin
                    changed := true;
                    let lo = if widen && lo < a.lo then wmin else lo in
                    let hi = if widen && hi > a.hi then wmax else hi in
                    iv lo hi
                  end)
            old
        in
        if !changed then begin
          widen_count.(pc) <- widen_count.(pc) + 1;
          states.(pc) <- Some joined;
          Queue.add pc work
        end
  in
  let entry = Array.init nregs (fun i -> if i < p.inputs then Iv top else Bot) in
  (* Streaming dispatch seeds the first two registers with trusted values —
     the payload-handler loop bound comes from the declared max payload, not
     the widening threshold: r0 = chunk index in [0, max_chunks), r1 = valid
     view words in [1, chunk_words]. *)
  (match p.hkind with
  | Payload { chunk_words; max_chunks } ->
      entry.(0) <- iv 0 (max_chunks - 1);
      entry.(1) <- iv 1 chunk_words
  | Episode | Header _ -> ());
  schedule 0 entry;
  let rej pc reason = raise (Rej (pc, reason)) in
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    let st = match states.(pc) with Some s -> s | None -> assert false in
    let out = Array.copy st in
    let get r = match st.(r) with Bot -> rej pc (Uninitialized_register r) | Iv i -> i in
    let set r v = out.(r) <- v in
    let check_bounds r off bound mk =
      let a = get r in
      let lo = a.lo + off and hi = a.hi + off in
      if lo < 0 || hi >= bound then rej pc (mk { lo; hi })
    in
    let check_addr r off mk = check_bounds r off p.seg_words mk in
    let goto t st = schedule t st in
    let fall st = goto (pc + 1) st in
    (match p.code.(pc) with
    | Const (rd, v) ->
        set rd (iv v v);
        fall out
    | Mov (rd, rs) ->
        set rd (Iv (get rs));
        fall out
    | Bin (op, rd, rs, rt) ->
        set rd (binop_iv pc op (get rs) (get rt));
        fall out
    | Bini (op, rd, rs, imm) ->
        set rd (binop_iv pc op (get rs) { lo = imm; hi = imm });
        fall out
    | Load (rd, rs, off) ->
        check_addr rs off (fun i -> Load_out_of_segment i);
        (* segment contents are untracked: a load yields any value *)
        set rd (Iv top);
        fall out
    | Store (rsrc, rbase, off) ->
        ignore (get rsrc);
        check_addr rbase off (fun i -> Store_out_of_segment i);
        fall out
    | Ldv (rd, rs, off) ->
        (* the view is untrusted wire data, but its extent is declared *)
        check_bounds rs off (Aih_ir.view_words p) (fun i -> View_out_of_bounds i);
        set rd (Iv top);
        fall out
    | Lds (rd, rs, off) ->
        check_bounds rs off p.scratch_words (fun i -> Scratch_out_of_bounds i);
        (* scratch is zeroed per activation, but stores to it are untracked *)
        set rd (Iv top);
        fall out
    | Sts (rsrc, rbase, off) ->
        ignore (get rsrc);
        check_bounds rbase off p.scratch_words (fun i -> Scratch_out_of_bounds i);
        fall out
    | Br (c, rs, rt, tgt) ->
        let x = get rs and y = get rt in
        (match (refine_x c x y, refine_y c x y) with
        | Some x', Some y' ->
            let taken = Array.copy out in
            taken.(rs) <- Iv x';
            taken.(rt) <- Iv y';
            goto tgt taken
        | _ -> ());
        let nc = negate_cmp c in
        (match (refine_x nc x y, refine_y nc x y) with
        | Some x', Some y' ->
            out.(rs) <- Iv x';
            out.(rt) <- Iv y';
            fall out
        | _ -> ())
    | Bri (c, rs, imm, tgt) ->
        let x = get rs and y = { lo = imm; hi = imm } in
        (match refine_x c x y with
        | Some x' ->
            let taken = Array.copy out in
            taken.(rs) <- Iv x';
            goto tgt taken
        | None -> ());
        (match refine_x (negate_cmp c) x y with
        | Some x' ->
            out.(rs) <- Iv x';
            fall out
        | None -> ())
    | Jmp tgt -> goto tgt out
    | Loop { counter; limit; exit } ->
        let x = get counter in
        if x.lo < 0 then rej pc (Loop_counter_negative counter);
        (match meet x { lo = limit; hi = wmax } with
        | Some e ->
            let ex = Array.copy out in
            ex.(counter) <- Iv e;
            goto exit ex
        | None -> ());
        (match meet x { lo = wmin; hi = limit - 1 } with
        | Some b ->
            out.(counter) <- iv (b.lo + 1) (b.hi + 1);
            fall out
        | None -> ())
    | Send { dst; kind; obj; value } ->
        ignore (get dst);
        ignore (get kind);
        ignore (get obj);
        ignore (get value);
        fall out
    | Wake { seq; value } ->
        ignore (get seq);
        ignore (get value);
        fall out
    | Halt -> ())
  done

(* The longest one activation may hold the protocol processor, in NIC
   cycles (~6 ms at 33 MHz). *)
let max_wcet = 200_000

let per_byte_milli ~wcet p =
  let bytes = Aih_ir.bytes_per_activation p in
  if bytes = 0 then 0 else ((1000 * wcet) + bytes - 1) / bytes

let verify ?cell_budget p =
  (* states computed so far, for rendering the diagnostic *)
  let states = ref [||] in
  let state_at pc = if pc < Array.length !states then !states.(pc) else None in
  let mk (pc, reason) = { rj_pc = pc; rj_reason = reason; rj_regs = render_state (state_at pc) } in
  let structural = collect_structure p @ collect_relocs p in
  if structural <> [] then Error (List.map mk (List.sort compare structural))
  else
    match check_loops p with
    | exception Rej (pc, reason) -> Error [ mk (pc, reason) ]
    | regions -> (
        let wcet = compute_wcet p regions in
        let errs = ref [] in
        if wcet > max_wcet then errs := (0, Wcet_exceeded wcet) :: !errs;
        (* Line-rate admission: a streaming activation must finish inside the
           cycle budget the caller derives from the link rate. Independent of
           the absolute WCET cap, so both can reject the same program. *)
        (match cell_budget with
        | Some budget when Aih_ir.bytes_per_activation p > 0 && wcet > budget ->
            errs := (0, Line_rate_exceeded { budget; wcet }) :: !errs
        | _ -> ());
        let sts = Array.make (Array.length p.code) None in
        states := sts;
        (try interpret p sts with Rej (pc, reason) -> errs := (pc, reason) :: !errs);
        match List.sort compare !errs with
        | [] ->
            Ok
              {
                code_bytes = Aih_ir.code_bytes p;
                wcet_nic_cycles = wcet;
                wcet_per_byte_milli = per_byte_milli ~wcet p;
              }
        | errs -> Error (List.map mk errs))
