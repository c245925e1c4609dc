open Aih_ir

type services = {
  sv_send : dst:int -> kind:int -> obj:int -> value:int -> unit;
  sv_wake : seq:int -> value:int -> unit;
  sv_charge : int -> unit;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let eval_cmp c a b =
  match c with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

let eval_bin pc op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then fault "pc=%d: division by zero" pc else a / b
  | Rem -> if b = 0 then fault "pc=%d: division by zero" pc else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> if b < 0 || b > 62 then fault "pc=%d: shift count %d" pc b else a lsl b
  | Shr -> if b < 0 || b > 62 then fault "pc=%d: shift count %d" pc b else a asr b

(* instructions one activation may execute before it faults *)
let fuel = 1_000_000

let run ?(view = [||]) p ~mem ~inputs services =
  if Array.length mem < p.seg_words then
    fault "segment of %d words is smaller than the program's %d" (Array.length mem) p.seg_words;
  let n = Array.length p.code in
  let regs = Array.make nregs 0 in
  Array.blit inputs 0 regs 0 (min (Array.length inputs) nregs);
  (* per-activation scratch: fresh zeroed SRAM every run, nothing persists *)
  let scratch = Array.make p.scratch_words 0 in
  let pending = ref 0 and total = ref 0 in
  let flush () =
    if !pending > 0 then begin
      services.sv_charge !pending;
      total := !total + !pending;
      pending := 0
    end
  in
  let addr pc base off =
    let a = regs.(base) + off in
    if a < 0 || a >= p.seg_words then fault "pc=%d: address %d outside segment of %d words" pc a p.seg_words;
    a
  in
  let pc = ref 0 and steps = ref 0 and running = ref true in
  while !running do
    if !pc < 0 || !pc >= n then fault "pc=%d: outside the program" !pc;
    if !steps >= fuel then fault "fuel of %d instructions exhausted" fuel;
    incr steps;
    let at = !pc in
    let i = p.code.(at) in
    pending := !pending + instr_cycles i;
    match i with
    | Const (rd, v) ->
        regs.(rd) <- v;
        incr pc
    | Mov (rd, rs) ->
        regs.(rd) <- regs.(rs);
        incr pc
    | Bin (op, rd, rs, rt) ->
        regs.(rd) <- eval_bin at op regs.(rs) regs.(rt);
        incr pc
    | Bini (op, rd, rs, imm) ->
        regs.(rd) <- eval_bin at op regs.(rs) imm;
        incr pc
    | Load (rd, rs, off) ->
        regs.(rd) <- mem.(addr at rs off);
        incr pc
    | Store (rsrc, rbase, off) ->
        mem.(addr at rbase off) <- regs.(rsrc);
        incr pc
    | Ldv (rd, rs, off) ->
        let a = regs.(rs) + off in
        if a < 0 || a >= Array.length view then
          fault "pc=%d: view address %d outside %d words" at a (Array.length view);
        regs.(rd) <- view.(a);
        incr pc
    | Lds (rd, rs, off) ->
        let a = regs.(rs) + off in
        if a < 0 || a >= p.scratch_words then
          fault "pc=%d: scratch address %d outside %d words" at a p.scratch_words;
        regs.(rd) <- scratch.(a);
        incr pc
    | Sts (rsrc, rbase, off) ->
        let a = regs.(rbase) + off in
        if a < 0 || a >= p.scratch_words then
          fault "pc=%d: scratch address %d outside %d words" at a p.scratch_words;
        scratch.(a) <- regs.(rsrc);
        incr pc
    | Br (c, rs, rt, tgt) -> if eval_cmp c regs.(rs) regs.(rt) then pc := tgt else incr pc
    | Bri (c, rs, imm, tgt) -> if eval_cmp c regs.(rs) imm then pc := tgt else incr pc
    | Jmp tgt -> pc := tgt
    | Loop { counter; limit; exit } ->
        if regs.(counter) >= limit then pc := exit
        else begin
          regs.(counter) <- regs.(counter) + 1;
          incr pc
        end
    | Send { dst; kind; obj; value } ->
        flush ();
        services.sv_send ~dst:regs.(dst) ~kind:regs.(kind) ~obj:regs.(obj) ~value:regs.(value);
        incr pc
    | Wake { seq; value } ->
        flush ();
        services.sv_wake ~seq:regs.(seq) ~value:regs.(value);
        incr pc
    | Halt ->
        flush ();
        running := false
  done;
  !total
