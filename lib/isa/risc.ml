module W32 = Hipstr_util.Wrap32

let desc =
  {
    Desc.which = Desc.Risc;
    nregs = 16;
    sp = 13;
    lr = Some 14;
    call_pushes_ret = false;
    scratch = 12;
    scratch2 = 11;
    arg_regs = [];
    ret_reg = 0;
    callee_saved = [ 4; 5; 6; 7; 8; 9; 10 ];
    caller_saved = [ 0; 1; 2; 3 ];
    (* callee-class registers first (see the CISC descriptor) *)
    allocatable = [ 4; 5; 6; 7; 8; 9; 10; 0; 1; 2; 3 ];
    align = 4;
  }

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


let fits16 k = k >= -32768 && k <= 32767

let encodable (i : Minstr.t) =
  match i with
  | Mov (Reg _, Reg _) | Mov (Reg _, Imm _) | Mov (Reg _, Mem _) | Mov (Mem _, Reg _) -> true
  | Mov _ -> false
  | Lea _ -> true
  | Binop (_, Reg _, Reg _) | Binop (_, Reg _, Imm _) -> true
  | Binop _ -> false
  | Cmp (Reg _, Reg _) | Cmp (Reg _, Imm _) -> true
  | Cmp _ -> false
  | Push (Reg _) | Pop (Reg _) -> true
  | Push _ | Pop _ -> false
  | Jmp _ | Jcc _ -> true
  | Jmpr (Reg _) | Callr (Reg _) -> true
  | Jmpr _ | Callr _ -> false
  | Call _ -> true
  | Ret -> false (* RISC returns are [Retr lr] *)
  | Retr _ -> true
  | Syscall | Nop | Trap _ | Callrat _ -> true
  | Retrat (Reg _) -> true
  | Retrat _ -> false

let length (i : Minstr.t) =
  if not (encodable i) then invalid_arg "risc: unencodable instruction";
  match i with
  | Mov (Reg _, Reg _) -> 4
  | Mov (Reg _, Imm k) -> if fits16 k then 4 else 8
  | Mov (Reg _, Mem { disp; _ }) | Mov (Mem { disp; _ }, Reg _) -> if fits16 disp then 4 else 8
  | Lea (_, _, k) -> if fits16 k then 4 else 8
  | Binop (_, Reg _, Reg _) -> 4
  | Binop (_, Reg _, Imm k) -> if fits16 k then 4 else 8
  | Cmp (Reg _, Reg _) -> 4
  | Cmp (Reg _, Imm k) -> if fits16 k then 4 else 8
  | Push (Reg _) | Pop (Reg _) -> 4
  | Jmp _ | Jcc _ | Call _ | Trap _ -> 8
  | Jmpr (Reg _) | Callr (Reg _) | Retr _ | Retrat (Reg _) -> 4
  | Syscall | Nop -> 4
  | Callrat _ -> 12
  | Mov _ | Binop _ | Cmp _ | Push _ | Pop _ | Jmpr _ | Callr _ | Ret | Retrat _ ->
    invalid_arg "risc: unencodable instruction"

let check_reg r = if r < 0 || r > 15 then invalid_arg "risc: register out of range"

(* Writers into a caller-owned [Bytes.t], as in the CISC encoder:
   each returns the position past what it wrote, and every byte value
   is in 0..255 by construction. *)
let put b p v = Bytes.set b p (Char.unsafe_chr v)

let word b p op x y imm16 =
  check_reg x;
  check_reg y;
  let imm = imm16 land 0xFFFF in
  put b p (op land 0xFF);
  put b (p + 1) ((x lsl 4) lor y);
  put b (p + 2) (imm land 0xFF);
  put b (p + 3) (imm lsr 8);
  p + 4

let extra b p v =
  put b p (v land 0xFF);
  put b (p + 1) ((v lsr 8) land 0xFF);
  put b (p + 2) ((v lsr 16) land 0xFF);
  put b (p + 3) ((v lsr 24) land 0xFF);
  p + 4

(* Narrow/wide immediate form: [op] if it fits in imm16, else
   [op lor 0x80] with a zero imm16 field and the value in a second
   word. *)
let imm_form b p op x y k =
  if fits16 k then word b p op x y k else extra b (word b p (op lor 0x80) x y 0) k

(* Encode at [pos] of a caller-owned byte string: [Translator.layout]
   encodes a whole unit into one string of its exact size. *)
let encode_into b ~pos ~at:_ (i : Minstr.t) =
  match i with
  | Mov (Reg d, Reg s) -> word b pos 0x01 d s 0
  | Mov (Reg d, Imm k) -> imm_form b pos 0x02 d 0 k
  | Mov (Reg d, Mem { base; disp }) -> imm_form b pos 0x03 d base disp
  | Mov (Mem { base; disp }, Reg s) -> imm_form b pos 0x04 s base disp
  | Lea (d, base, k) -> imm_form b pos 0x06 d base k
  | Binop (op, Reg d, Reg s) -> word b pos (0x10 + binop_index op) d s 0
  | Binop (op, Reg d, Imm k) -> imm_form b pos (0x20 + binop_index op) d 0 k
  | Cmp (Reg x, Reg y) -> word b pos 0x60 x y 0
  | Cmp (Reg x, Imm k) -> imm_form b pos 0x61 x 0 k
  | Push (Reg r) -> word b pos 0x70 r 0 0
  | Pop (Reg r) -> word b pos 0x73 r 0 0
  | Jmp t -> extra b (word b pos 0x7B 0 0 0) t
  | Jcc (c, t) -> extra b (word b pos (0x40 + cond_index c) 0 0 0) t
  | Call t -> extra b (word b pos 0x48 0 0 0) t
  | Jmpr (Reg r) -> word b pos 0x49 r 0 0
  | Callr (Reg r) -> word b pos 0x4A r 0 0
  | Retr r -> word b pos 0x4B r 0 0
  | Syscall -> word b pos 0x4C 0 0 0
  | Nop -> word b pos 0x4D 0 0 0
  | Trap a -> extra b (word b pos 0x4E 0 0 0) a
  | Callrat { target; src_ret } -> extra b (extra b (word b pos 0x4F 0 0 0) target) src_ret
  | Retrat (Reg r) -> word b pos 0x51 r 0 0
  | Mov _ | Binop _ | Cmp _ | Push _ | Pop _ | Jmpr _ | Callr _ | Ret | Retrat _ ->
    invalid_arg "risc: unencodable instruction"

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

(* Narrow/wide immediate: imm16 for the narrow form, the second word
   for the wide one. *)
let d_imm read addr wide imm16 = if wide then d_i32 read addr 4 else imm16

let decode ~read addr =
  let op = d_byte read addr 0 in
  let ab = d_byte read addr 1 in
  let a = ab lsr 4 and b = ab land 0xF in
  let imm16 =
    let v = d_byte read addr 2 lor (d_byte read addr 3 lsl 8) in
    if v land 0x8000 <> 0 then v - 0x10000 else v
  in
  let wide = op land 0x80 <> 0 in
  let base_op = op land 0x7F in
  let len = if wide then 8 else 4 in
  (* Wide forms must carry a zero imm16 field; the payload is the
     second word. *)
  let ok_wide = (not wide) || imm16 = 0 in
  if not ok_wide then None
  else
    match base_op with
    | 0x01 when (not wide) && imm16 = 0 -> Some (Minstr.Mov (Reg a, Reg b), 4)
    | 0x02 when b = 0 -> Some (Minstr.Mov (Reg a, Imm (d_imm read addr wide imm16)), len)
    | 0x03 -> Some (Minstr.Mov (Reg a, Mem { base = b; disp = d_imm read addr wide imm16 }), len)
    | 0x04 -> Some (Minstr.Mov (Mem { base = b; disp = d_imm read addr wide imm16 }, Reg a), len)
    | 0x06 -> Some (Minstr.Lea (a, b, d_imm read addr wide imm16), len)
    | _ when base_op >= 0x10 && base_op <= 0x1A && (not wide) && imm16 = 0 ->
      Some (Minstr.Binop (Minstr.all_binops.(base_op - 0x10), Reg a, Reg b), 4)
    | _ when base_op >= 0x20 && base_op <= 0x2A && b = 0 ->
      Some (Minstr.Binop (Minstr.all_binops.(base_op - 0x20), Reg a, Imm (d_imm read addr wide imm16)), len)
    | 0x60 when (not wide) && imm16 = 0 -> Some (Minstr.Cmp (Reg a, Reg b), 4)
    | 0x61 when b = 0 -> Some (Minstr.Cmp (Reg a, Imm (d_imm read addr wide imm16)), len)
    | 0x70 when (not wide) && b = 0 && imm16 = 0 -> Some (Minstr.Push (Reg a), 4)
    | 0x73 when (not wide) && b = 0 && imm16 = 0 -> Some (Minstr.Pop (Reg a), 4)
    | 0x7B when (not wide) && a = 0 && b = 0 && imm16 = 0 -> Some (Minstr.Jmp (d_i32 read addr 4), 8)
    | _ when base_op >= 0x40 && base_op <= 0x47 && (not wide) && a = 0 && b = 0 && imm16 = 0 ->
      Some (Minstr.Jcc (Minstr.all_conds.(base_op - 0x40), d_i32 read addr 4), 8)
    | 0x48 when (not wide) && a = 0 && b = 0 && imm16 = 0 -> Some (Minstr.Call (d_i32 read addr 4), 8)
    | 0x49 when (not wide) && b = 0 && imm16 = 0 -> Some (Minstr.Jmpr (Reg a), 4)
    | 0x4A when (not wide) && b = 0 && imm16 = 0 -> Some (Minstr.Callr (Reg a), 4)
    | 0x4B when (not wide) && b = 0 && imm16 = 0 -> Some (Minstr.Retr a, 4)
    | 0x4C when (not wide) && a = 0 && b = 0 && imm16 = 0 -> Some (Minstr.Syscall, 4)
    | 0x4D when (not wide) && a = 0 && b = 0 && imm16 = 0 -> Some (Minstr.Nop, 4)
    | 0x4E when (not wide) && a = 0 && b = 0 && imm16 = 0 -> Some (Minstr.Trap (d_i32 read addr 4), 8)
    | 0x4F when (not wide) && a = 0 && b = 0 && imm16 = 0 ->
      Some (Minstr.Callrat { target = d_i32 read addr 4; src_ret = d_i32 read addr 8 }, 12)
    | 0x51 when (not wide) && b = 0 && imm16 = 0 -> Some (Minstr.Retrat (Reg a), 4)
    | _ -> None
