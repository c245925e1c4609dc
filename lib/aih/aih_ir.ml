type reg = int

let nregs = 16

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Const of reg * int
  | Mov of reg * reg
  | Bin of binop * reg * reg * reg
  | Bini of binop * reg * reg * int
  | Load of reg * reg * int
  | Store of reg * reg * int
  | Ldv of reg * reg * int
  | Lds of reg * reg * int
  | Sts of reg * reg * int
  | Br of cmp * reg * reg * int
  | Bri of cmp * reg * int * int
  | Jmp of int
  | Loop of { counter : reg; limit : int; exit : int }
  | Send of { dst : reg; kind : reg; obj : reg; value : reg }
  | Wake of { seq : reg; value : reg }
  | Halt

type hkind =
  | Episode
  | Header of { view_words : int }
  | Payload of { chunk_words : int; max_chunks : int }

type program = {
  name : string;
  hkind : hkind;
  seg_words : int;
  scratch_words : int;
  inputs : int;
  code : instr array;
  relocs : int list;
}

(* 33 MHz board clock: ALU and control are single-cycle, board SRAM (segment
   and per-activation scratch) is two, the cursor view reads straight out of
   the reassembly buffer latches (1), a host wakeup raises the bridge (4), a
   send posts a transmit descriptor and hands the frame to the segmenter
   (8). *)
let instr_cycles = function
  | Const _ | Mov _ | Bin _ | Bini _ | Br _ | Bri _ | Jmp _ | Loop _ | Halt | Ldv _ -> 1
  | Load _ | Store _ | Lds _ | Sts _ -> 2
  | Wake _ -> 4
  | Send _ -> 8


(* ------------------------------------------------------------------ *)
(* Object-code image                                                   *)
(* ------------------------------------------------------------------ *)

let magic = 0x41494832 (* "AIH2": streaming header/payload handler kinds *)
let header_bytes = 36
let instr_bytes = 12
let reloc_bytes = 4
let word_bytes = 8

let view_words p =
  match p.hkind with
  | Episode -> 0
  | Header { view_words } -> view_words
  | Payload { chunk_words; _ } -> chunk_words

(* Wire bytes one activation is responsible for: the certificate's per-byte
   bound divides the WCET by this. Episode handlers are not per-packet, so
   0 (no per-byte obligation). *)
let bytes_per_activation p = word_bytes * view_words p

let binop_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let cmp_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let opcode = function
  | Const _ -> 1
  | Mov _ -> 2
  | Bin _ -> 3
  | Bini _ -> 4
  | Load _ -> 5
  | Store _ -> 6
  | Br _ -> 7
  | Bri _ -> 8
  | Jmp _ -> 9
  | Loop _ -> 10
  | Send _ -> 11
  | Wake _ -> 12
  | Halt -> 13
  | Ldv _ -> 14
  | Lds _ -> 15
  | Sts _ -> 16

(* every word field of the image is a little-endian i32 *)
let put32 b off v =
  if v < -0x8000_0000 || v > 0x7FFF_FFFF then
    invalid_arg (Printf.sprintf "Aih_ir.encode: %d does not fit a 32-bit field" v);
  Bytes.set_int32_le b off (Int32.of_int v)

(* one instruction = opcode byte, three register/selector bytes, two i32
   immediates *)
let fields = function
  | Const (rd, v) -> (rd, 0, 0, v, 0)
  | Mov (rd, rs) -> (rd, rs, 0, 0, 0)
  | Bin (op, rd, rs, rt) -> (rd, rs, rt, binop_code op, 0)
  | Bini (op, rd, rs, imm) -> (rd, rs, binop_code op, imm, 0)
  | Load (rd, rs, off) -> (rd, rs, 0, off, 0)
  | Store (rsrc, rbase, off) -> (rsrc, rbase, 0, off, 0)
  | Ldv (rd, rs, off) -> (rd, rs, 0, off, 0)
  | Lds (rd, rs, off) -> (rd, rs, 0, off, 0)
  | Sts (rsrc, rbase, off) -> (rsrc, rbase, 0, off, 0)
  | Br (c, rs, rt, tgt) -> (rs, rt, cmp_code c, tgt, 0)
  | Bri (c, rs, imm, tgt) -> (rs, 0, cmp_code c, imm, tgt)
  | Jmp tgt -> (0, 0, 0, tgt, 0)
  | Loop { counter; limit; exit } -> (counter, 0, 0, limit, exit)
  | Send { dst; kind; obj; value } -> (dst, kind, obj, value, 0)
  | Wake { seq; value } -> (seq, value, 0, 0, 0)
  | Halt -> (0, 0, 0, 0, 0)

let hkind_fields = function
  | Episode -> (0, 0, 0)
  | Header { view_words } -> (1, view_words, 0)
  | Payload { chunk_words; max_chunks } -> (2, chunk_words, max_chunks)

let encode p =
  let n = Array.length p.code in
  let r = List.length p.relocs in
  let b = Bytes.make (header_bytes + (instr_bytes * n) + (reloc_bytes * r)) '\000' in
  put32 b 0 magic;
  put32 b 4 n;
  put32 b 8 r;
  put32 b 12 p.seg_words;
  put32 b 16 p.inputs;
  let hk_tag, hk_a, hk_b = hkind_fields p.hkind in
  put32 b 20 hk_tag;
  put32 b 24 hk_a;
  put32 b 28 hk_b;
  put32 b 32 p.scratch_words;
  Array.iteri
    (fun i ins ->
      let off = header_bytes + (instr_bytes * i) in
      let a, b', c, imm1, imm2 = fields ins in
      Bytes.set_uint8 b off (opcode ins);
      Bytes.set_uint8 b (off + 1) (a land 0xff);
      Bytes.set_uint8 b (off + 2) (b' land 0xff);
      Bytes.set_uint8 b (off + 3) (c land 0xff);
      put32 b (off + 4) imm1;
      put32 b (off + 8) imm2)
    p.code;
  List.iteri (fun i pc -> put32 b (header_bytes + (instr_bytes * n) + (reloc_bytes * i)) pc) p.relocs;
  b

let code_bytes p = Bytes.length (encode p) + (word_bytes * (p.seg_words + p.scratch_words))

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

module Asm = struct
  type patch = { at : int; lbl : int; mk : int -> instr }

  type t = {
    mutable code : instr list; (* reversed *)
    mutable len : int;
    mutable relocs : int list;
    mutable labels : int array; (* label id -> pc; -1 = unplaced *)
    mutable nlabels : int;
    mutable patches : patch list;
  }

  type label = int

  let create () =
    { code = []; len = 0; relocs = []; labels = Array.make 16 (-1); nlabels = 0; patches = [] }

  let fresh t =
    if t.nlabels = Array.length t.labels then begin
      let a = Array.make (2 * t.nlabels) (-1) in
      Array.blit t.labels 0 a 0 t.nlabels;
      t.labels <- a
    end;
    let l = t.nlabels in
    t.nlabels <- l + 1;
    l

  let place t l =
    if t.labels.(l) >= 0 then invalid_arg "Aih_ir.Asm.place: label already placed";
    t.labels.(l) <- t.len

  let emit t i =
    t.code <- i :: t.code;
    t.len <- t.len + 1

  let emitp t l mk =
    t.patches <- { at = t.len; lbl = l; mk } :: t.patches;
    emit t (mk (-1))

  let const t rd v = emit t (Const (rd, v))

  let const_addr t rd off =
    t.relocs <- t.len :: t.relocs;
    emit t (Const (rd, off))

  let mov t rd rs = emit t (Mov (rd, rs))
  let bin t op rd rs rt = emit t (Bin (op, rd, rs, rt))
  let bini t op rd rs imm = emit t (Bini (op, rd, rs, imm))
  let load t rd ~base off = emit t (Load (rd, base, off))
  let store t rsrc ~base off = emit t (Store (rsrc, base, off))
  let ldv t rd ~base off = emit t (Ldv (rd, base, off))
  let lds t rd ~base off = emit t (Lds (rd, base, off))
  let sts t rsrc ~base off = emit t (Sts (rsrc, base, off))
  let br t c rs rt l = emitp t l (fun pc -> Br (c, rs, rt, pc))
  let bri t c rs imm l = emitp t l (fun pc -> Bri (c, rs, imm, pc))
  let jmp t l = emitp t l (fun pc -> Jmp pc)
  let loop t ~counter ~limit ~exit:l = emitp t l (fun pc -> Loop { counter; limit; exit = pc })
  let send t ~dst ~kind ~obj ~value = emit t (Send { dst; kind; obj; value })
  let wake t ~seq ~value = emit t (Wake { seq; value })
  let halt t = emit t Halt

  let assemble ?(hkind = Episode) ?(scratch_words = 0) t ~name ~seg_words ~inputs =
    let code = Array.of_list (List.rev t.code) in
    List.iter
      (fun { at; lbl; mk } ->
        let pc = t.labels.(lbl) in
        if pc < 0 then invalid_arg "Aih_ir.Asm.assemble: branch to an unplaced label";
        code.(at) <- mk pc)
      t.patches;
    { name; hkind; seg_words; scratch_words; inputs; code; relocs = List.sort compare t.relocs }
end
