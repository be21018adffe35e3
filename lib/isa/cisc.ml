module W32 = Hipstr_util.Wrap32

let desc =
  {
    Desc.which = Desc.Cisc;
    nregs = 8;
    sp = 7;
    lr = None;
    call_pushes_ret = true;
    scratch = 6 (* bp *);
    scratch2 = 5 (* di *);
    arg_regs = [];
    ret_reg = 0 (* ax *);
    callee_saved = [ 1; 4 ] (* bx si *);
    caller_saved = [ 0; 2; 3 ] (* ax cx dx *);
    (* callee-class registers first: long-lived values prefer them,
       which is also what keeps blocks migration-safe *)
    allocatable = [ 1; 4; 0; 2; 3 ];
    align = 1;
  }

let ret_opcode = 0xC3

let binop_index : Minstr.binop -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Divs -> 3
  | Rems -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9
  | Sar -> 10


let cond_index : Minstr.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Ge -> 3
  | Gt -> 4
  | Le -> 5
  | Ult -> 6
  | Uge -> 7


let length (i : Minstr.t) =
  match i with
  | Mov (Reg _, Reg _) -> 2
  | Mov (Reg _, Imm _) -> 6
  | Mov (Reg _, Mem _) -> 6
  | Mov (Mem _, Reg _) -> 6
  | Mov (Mem _, Imm _) -> 10
  | Mov (Imm _, _) | Mov (Mem _, Mem _) -> invalid_arg "cisc: bad mov operands"
  | Lea _ -> 6
  | Binop (_, Reg _, Reg _) -> 2
  | Binop (_, Reg _, Imm _) -> 6
  | Binop (_, Reg _, Mem _) -> 6
  | Binop (_, Mem _, Reg _) -> 6
  | Binop (_, Mem _, Imm _) -> 10
  | Binop (_, Imm _, _) | Binop (_, Mem _, Mem _) -> invalid_arg "cisc: bad binop operands"
  | Cmp (Reg _, Reg _) -> 2
  | Cmp (Reg _, Imm _) -> 6
  | Cmp (Reg _, Mem _) -> 6
  | Cmp (Mem _, Imm _) -> 10
  | Cmp (Mem _, Reg _) -> 6
  | Cmp (Imm _, _) | Cmp (Mem _, Mem _) -> invalid_arg "cisc: bad cmp operands"
  | Push (Reg _) -> 2
  | Push (Imm _) -> 6
  | Push (Mem _) -> 6
  | Pop (Reg _) -> 2
  | Pop (Mem _) -> 6
  | Pop (Imm _) -> invalid_arg "cisc: pop imm"
  | Jmp _ -> 5
  | Jcc _ -> 5
  | Jmpr (Reg _) -> 2
  | Jmpr (Mem _) -> 6
  | Jmpr (Imm _) -> invalid_arg "cisc: jmpr imm"
  | Call _ -> 5
  | Callr (Reg _) -> 2
  | Callr (Mem _) -> 6
  | Callr (Imm _) -> invalid_arg "cisc: callr imm"
  | Ret -> 1
  | Retr _ -> invalid_arg "cisc: retr is RISC-only"
  | Syscall -> 1
  | Nop -> 1
  | Trap _ -> 5
  | Callrat _ -> 9
  | Retrat (Reg _) -> 2
  | Retrat (Mem _) -> 6
  | Retrat (Imm _) -> invalid_arg "cisc: retrat imm"

(* The operand rule is stated once, by [length]: every shape it sizes
   is one [encode_into] emits. *)
let encodable i = match length i with _ -> true | exception Invalid_argument _ -> false

let check_reg r = if r < 0 || r > 7 then invalid_arg "cisc: register out of range"

(* The operand byte mimics x86's modrm: reg-reg forms carry mod=11
   (byte 0xC0..0xFF — the reason 0xC3 ret bytes pervade real x86
   code), memory forms mod=01 (0x40..0x7F). *)
let modrr a b = 0xC0 lor (a lsl 3) lor b
let modrm a b = 0x40 lor (a lsl 3) lor b

(* Byte writers into a caller-owned [Bytes.t]: each takes the position
   to write at and returns the position past what it wrote. Every byte
   value is in 0..255 by construction (an opcode constant, an operand
   byte over checked registers, or a masked immediate byte), so no
   [Char.chr] range check runs per byte; [Bytes.set] still checks the
   position. *)
let put b p v = Bytes.set b p (Char.unsafe_chr v)

let put_i32 b p v =
  put b p (v land 0xFF);
  put b (p + 1) ((v lsr 8) land 0xFF);
  put b (p + 2) ((v lsr 16) land 0xFF);
  put b (p + 3) ((v lsr 24) land 0xFF);
  p + 4

let op1 b p op =
  put b p op;
  p + 1

(* opcode, then a reg-reg or reg-mem operand byte *)
let op_rr b p op x y =
  check_reg x;
  check_reg y;
  put b p op;
  put b (p + 1) (modrr x y);
  p + 2

let op_rm b p op x y =
  check_reg x;
  check_reg y;
  put b p op;
  put b (p + 1) (modrm x y);
  p + 2

let op_i32 b p op k = put_i32 b (op1 b p op) k

(* Relative displacement of [target] from the end of a [len]-byte
   instruction at [at]. *)
let rel at target len = target - (at + len)

(* Encode at [pos] of a caller-owned byte string: [Translator.layout]
   encodes a whole unit into one string of its exact size. *)
let encode_into b ~pos ~at (i : Minstr.t) =
  match i with
  | Mov (Reg d, Reg s) -> op_rr b pos 0x01 d s
  | Mov (Reg d, Imm k) -> put_i32 b (op_rr b pos 0x02 d 0) k
  | Mov (Reg d, Mem { base; disp }) -> put_i32 b (op_rm b pos 0x03 d base) disp
  | Mov (Mem { base; disp }, Reg s) -> put_i32 b (op_rm b pos 0x04 s base) disp
  | Mov (Mem { base; disp }, Imm k) -> put_i32 b (put_i32 b (op_rm b pos 0x05 0 base) disp) k
  | Mov (Imm _, _) | Mov (Mem _, Mem _) -> invalid_arg "cisc: bad mov operands"
  | Lea (d, base, k) -> put_i32 b (op_rm b pos 0x06 d base) k
  | Binop (op, Reg d, Reg s) -> op_rr b pos (0x10 + binop_index op) d s
  | Binop (op, Reg d, Imm k) -> put_i32 b (op_rr b pos (0x20 + binop_index op) d 0) k
  | Binop (op, Reg d, Mem { base; disp }) ->
    put_i32 b (op_rm b pos (0x30 + binop_index op) d base) disp
  | Binop (op, Mem { base; disp }, Reg s) ->
    put_i32 b (op_rm b pos (0x40 + binop_index op) s base) disp
  | Binop (op, Mem { base; disp }, Imm k) ->
    put_i32 b (put_i32 b (op_rm b pos (0x50 + binop_index op) 0 base) disp) k
  | Binop (_, Imm _, _) | Binop (_, Mem _, Mem _) -> invalid_arg "cisc: bad binop operands"
  | Cmp (Reg a, Reg c) -> op_rr b pos 0x60 a c
  | Cmp (Reg a, Imm k) -> put_i32 b (op_rr b pos 0x61 a 0) k
  | Cmp (Reg a, Mem { base; disp }) -> put_i32 b (op_rm b pos 0x62 a base) disp
  | Cmp (Mem { base; disp }, Imm k) -> put_i32 b (put_i32 b (op_rm b pos 0x63 0 base) disp) k
  | Cmp (Mem { base; disp }, Reg c) -> put_i32 b (op_rm b pos 0x64 c base) disp
  | Cmp (Imm _, _) | Cmp (Mem _, Mem _) -> invalid_arg "cisc: bad cmp operands"
  | Push (Reg r) -> op_rr b pos 0x70 r 0
  | Push (Imm k) -> put_i32 b (op_rr b pos 0x71 0 0) k
  | Push (Mem { base; disp }) -> put_i32 b (op_rm b pos 0x72 0 base) disp
  | Pop (Reg r) -> op_rr b pos 0x73 r 0
  | Pop (Mem { base; disp }) -> put_i32 b (op_rm b pos 0x74 0 base) disp
  | Pop (Imm _) -> invalid_arg "cisc: pop imm"
  | Jmp t -> op_i32 b pos 0x80 (rel at t 5)
  | Jcc (c, t) -> op_i32 b pos (0x81 + cond_index c) (rel at t 5)
  | Jmpr (Reg r) -> op_rr b pos 0x90 r 0
  | Jmpr (Mem { base; disp }) -> put_i32 b (op_rm b pos 0x91 0 base) disp
  | Jmpr (Imm _) -> invalid_arg "cisc: jmpr imm"
  | Call t -> op_i32 b pos 0x92 (rel at t 5)
  | Callr (Reg r) -> op_rr b pos 0x93 r 0
  | Callr (Mem { base; disp }) -> put_i32 b (op_rm b pos 0x94 0 base) disp
  | Callr (Imm _) -> invalid_arg "cisc: callr imm"
  | Ret -> op1 b pos ret_opcode
  | Retr _ -> invalid_arg "cisc: retr is RISC-only"
  | Syscall -> op1 b pos 0xA0
  | Nop -> op1 b pos 0x99
  | Trap a -> op_i32 b pos 0xA1 a
  | Callrat { target; src_ret } -> put_i32 b (op_i32 b pos 0xA2 target) src_ret
  | Retrat (Reg r) -> op_rr b pos 0xA3 r 0
  | Retrat (Mem { base; disp }) -> put_i32 b (op_rm b pos 0xA4 0 base) disp
  | Retrat (Imm _) -> invalid_arg "cisc: retrat imm"

(* Decoding. Any byte sequence may be presented (Galileo decodes at
   every offset), so every field is validated and [None] returned on
   anything malformed. *)

(* Decode helpers are top-level functions fully applied at every use
   site: a local closure over [read]/[addr] would allocate per decode
   call, and decode runs per block build with the decode cache on and
   per retired instruction with it off. *)
let d_byte read addr k = read (addr + k) land 0xFF

let d_i32 read addr k =
  W32.of_bytes (d_byte read addr k)
    (d_byte read addr (k + 1))
    (d_byte read addr (k + 2))
    (d_byte read addr (k + 3))

(* Operand byte at offset [k]: the two mode bits must equal [want]
   (3 = reg/reg form, 1 = reg/mem form). Returns the low six bits
   ((first lsl 3) lor second) — an int instead of an option pair so
   the malformed case (-1) costs nothing. *)
let d_pair read addr k want =
  let b = d_byte read addr k in
  if b lsr 6 <> want then -1 else b land 0x3F

let decode ~read addr =
  let op = d_byte read addr 0 in
  match op with
  | 0x01 ->
    let x = d_pair read addr 1 3 in
    if x < 0 then None else Some (Minstr.Mov (Reg (x lsr 3), Reg (x land 7)), 2)
  | 0x02 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None
    else Some (Minstr.Mov (Reg (x lsr 3), Imm (d_i32 read addr 2)), 6)
  | 0x03 ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None
    else Some (Minstr.Mov (Reg (x lsr 3), Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | 0x04 ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None
    else Some (Minstr.Mov (Mem { base = x land 7; disp = d_i32 read addr 2 }, Reg (x lsr 3)), 6)
  | 0x05 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else
      Some
        ( Minstr.Mov (Mem { base = x land 7; disp = d_i32 read addr 2 }, Imm (d_i32 read addr 6)),
          10 )
  | 0x06 ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None else Some (Minstr.Lea (x lsr 3, x land 7, d_i32 read addr 2), 6)
  | _ when op >= 0x10 && op <= 0x1A ->
    let x = d_pair read addr 1 3 in
    if x < 0 then None
    else Some (Minstr.Binop (Minstr.all_binops.(op - 0x10), Reg (x lsr 3), Reg (x land 7)), 2)
  | _ when op >= 0x20 && op <= 0x2A ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None
    else
      Some (Minstr.Binop (Minstr.all_binops.(op - 0x20), Reg (x lsr 3), Imm (d_i32 read addr 2)), 6)
  | _ when op >= 0x30 && op <= 0x3A ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None
    else
      Some
        ( Minstr.Binop
            (Minstr.all_binops.(op - 0x30), Reg (x lsr 3), Mem { base = x land 7; disp = d_i32 read addr 2 }),
          6 )
  | _ when op >= 0x40 && op <= 0x4A ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None
    else
      Some
        ( Minstr.Binop
            (Minstr.all_binops.(op - 0x40), Mem { base = x land 7; disp = d_i32 read addr 2 }, Reg (x lsr 3)),
          6 )
  | _ when op >= 0x50 && op <= 0x5A ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else
      Some
        ( Minstr.Binop
            ( Minstr.all_binops.(op - 0x50),
              Mem { base = x land 7; disp = d_i32 read addr 2 },
              Imm (d_i32 read addr 6) ),
          10 )
  | 0x60 ->
    let x = d_pair read addr 1 3 in
    if x < 0 then None else Some (Minstr.Cmp (Reg (x lsr 3), Reg (x land 7)), 2)
  | 0x61 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None
    else Some (Minstr.Cmp (Reg (x lsr 3), Imm (d_i32 read addr 2)), 6)
  | 0x62 ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None
    else Some (Minstr.Cmp (Reg (x lsr 3), Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | 0x63 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else
      Some
        ( Minstr.Cmp (Mem { base = x land 7; disp = d_i32 read addr 2 }, Imm (d_i32 read addr 6)),
          10 )
  | 0x64 ->
    let x = d_pair read addr 1 1 in
    if x < 0 then None
    else Some (Minstr.Cmp (Mem { base = x land 7; disp = d_i32 read addr 2 }, Reg (x lsr 3)), 6)
  | 0x70 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None else Some (Minstr.Push (Reg (x lsr 3)), 2)
  | 0x71 ->
    let x = d_pair read addr 1 3 in
    if x <> 0 then None else Some (Minstr.Push (Imm (d_i32 read addr 2)), 6)
  | 0x72 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else Some (Minstr.Push (Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | 0x73 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None else Some (Minstr.Pop (Reg (x lsr 3)), 2)
  | 0x74 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else Some (Minstr.Pop (Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | 0x80 -> Some (Minstr.Jmp (addr + 5 + d_i32 read addr 1), 5)
  | _ when op >= 0x81 && op <= 0x88 ->
    Some (Minstr.Jcc (Minstr.all_conds.(op - 0x81), addr + 5 + d_i32 read addr 1), 5)
  | 0x90 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None else Some (Minstr.Jmpr (Reg (x lsr 3)), 2)
  | 0x91 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else Some (Minstr.Jmpr (Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | 0x92 -> Some (Minstr.Call (addr + 5 + d_i32 read addr 1), 5)
  | 0x93 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None else Some (Minstr.Callr (Reg (x lsr 3)), 2)
  | 0x94 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else Some (Minstr.Callr (Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | 0xC3 -> Some (Minstr.Ret, 1)
  | 0xA0 -> Some (Minstr.Syscall, 1)
  | 0x99 -> Some (Minstr.Nop, 1)
  (* Decode-only aliases. Real x86 has a dense one-byte opcode map
     (58+r pop, B8+r mov imm32, C2 ret-imm16, ...) which is what makes
     unintended gadgets abundant; these compact forms are never
     emitted by the encoder but decode validly, reproducing that
     density. *)
  | _ when op >= 0xC8 && op <= 0xCF -> Some (Minstr.Pop (Reg (op - 0xC8)), 1)
  | _ when op >= 0xD0 && op <= 0xD7 -> Some (Minstr.Push (Reg (op - 0xD0)), 1)
  | _ when op >= 0xB8 && op <= 0xBF -> Some (Minstr.Mov (Reg (op - 0xB8), Imm (d_i32 read addr 1)), 5)
  | _ when op >= 0xB0 && op <= 0xB7 ->
    let v = d_byte read addr 1 in
    let v = if v land 0x80 <> 0 then v - 0x100 else v in
    Some (Minstr.Mov (Reg (op - 0xB0), Imm v), 2)
  | 0xC2 -> Some (Minstr.Ret, 3) (* ret imm16: pops shown as plain ret *)
  | _ when op >= 0x04 && op <= 0x0B ->
    let v = d_byte read addr 1 in
    let v = if v land 0x80 <> 0 then v - 0x100 else v in
    Some (Minstr.Binop (Minstr.Add, Reg (op - 0x04), Imm v), 2)
  | _ when op >= 0xE0 && op <= 0xE7 ->
    let v = d_byte read addr 1 in
    let v = if v land 0x80 <> 0 then v - 0x100 else v in
    Some (Minstr.Binop (Minstr.Xor, Reg (op - 0xE0), Imm v), 2)
  | _ when op >= 0xF0 && op <= 0xFF ->
    Some (Minstr.Mov (Reg (op land 7), Mem { base = 7; disp = d_byte read addr 1 land 0x7C }), 2)
    (* short stack load: mov r, [sp+disp7] *)
  | 0x00 -> Some (Minstr.Binop (Minstr.Add, Reg 0, Reg 0), 1)
  | _ when op >= 0x0C && op <= 0x0F ->
    Some (Minstr.Binop (Minstr.Or, Reg (op land 3), Imm (d_byte read addr 1)), 2)
  | _ when op >= 0x1B && op <= 0x1F ->
    Some (Minstr.Binop (Minstr.Sub, Reg (op land 7), Imm (d_byte read addr 1)), 2)
  | _ when op >= 0x2B && op <= 0x2F ->
    Some (Minstr.Binop (Minstr.And, Reg (op land 7), Imm (d_byte read addr 1)), 2)
  | _ when op >= 0x3B && op <= 0x3F -> Some (Minstr.Cmp (Reg (op land 7), Imm (d_byte read addr 1)), 2)
  | _ when op >= 0x4B && op <= 0x4F -> Some (Minstr.Mov (Reg (op land 7), Reg (op land 3)), 1)
  | _ when op >= 0x5B && op <= 0x5F ->
    (* like x86's one-byte 58+r pops *)
    Some (Minstr.Pop (Reg (op land 7)), 1)
  | _ when op >= 0x65 && op <= 0x6F ->
    Some (Minstr.Binop (Minstr.Xor, Reg (op land 7), Reg ((op lsr 1) land 7)), 1)
  | _ when op >= 0x75 && op <= 0x79 ->
    let rel = d_byte read addr 1 in
    let rel = if rel land 0x80 <> 0 then rel - 0x100 else rel in
    Some (Minstr.Jcc (Minstr.all_conds.(op - 0x75), addr + 2 + rel), 2)
  | _ when op >= 0x7A && op <= 0x7F ->
    Some (Minstr.Binop (Minstr.Or, Reg (op land 7), Imm (d_byte read addr 1)), 2)
  | _ when op >= 0x89 && op <= 0x8F ->
    Some (Minstr.Mov (Reg (op land 7), Mem { base = 7; disp = d_byte read addr 1 land 0x7C }), 2)
  | _ when op >= 0x95 && op <= 0x9F && op <> 0x99 -> Some (Minstr.Push (Reg (op land 7)), 1)
  | _ when op >= 0xA5 && op <= 0xAF -> Some (Minstr.Lea (op land 7, 7, d_byte read addr 1 land 0x7C), 2)
  | 0xC0 | 0xC1 -> Some (Minstr.Nop, 1)
  | _ when op >= 0xC4 && op <= 0xC7 ->
    Some (Minstr.Binop (Minstr.Add, Reg (op land 3), Reg ((op lsr 1) land 3)), 1)
  | _ when op >= 0xD8 && op <= 0xDF ->
    Some (Minstr.Binop (Minstr.Mul, Reg (op land 7), Imm (d_byte read addr 1)), 2)
  | _ when op >= 0xE8 && op <= 0xEF ->
    Some (Minstr.Mov (Mem { base = 7; disp = d_byte read addr 1 land 0x7C }, Reg (op land 7)), 2)
  | 0xA1 -> Some (Minstr.Trap (d_i32 read addr 1), 5)
  | 0xA2 -> Some (Minstr.Callrat { target = d_i32 read addr 1; src_ret = d_i32 read addr 5 }, 9)
  | 0xA3 ->
    let x = d_pair read addr 1 3 in
    if x < 0 || x land 7 <> 0 then None else Some (Minstr.Retrat (Reg (x lsr 3)), 2)
  | 0xA4 ->
    let x = d_pair read addr 1 1 in
    if x < 0 || x lsr 3 <> 0 then None
    else Some (Minstr.Retrat (Mem { base = x land 7; disp = d_i32 read addr 2 }), 6)
  | _ -> None
