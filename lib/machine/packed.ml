open Hipstr_isa

(* Packed instruction encoding: one decoded [Minstr.t] flattened into
   three unboxed ints — a meta word plus two payload words — so the
   interpreter's flat dispatcher can retire instructions from a plain
   [int array] without touching boxed variant blocks.

   Meta word layout (low to high):

     bits  0..5   tag (specialized opcode, see below)
     bits  6..9   encoded length in bytes (1..12)
     bits 10..13  sub-opcode: binop code or condition code
     bits 14..15  operand-slot-1 kind (0 none, 1 reg, 2 imm, 3 mem)
     bits 16..17  operand-slot-2 kind
     bits 18..21  operand-slot-1 register
     bits 22..25  operand-slot-2 register

   Payload word 1 carries slot 1's immediate or displacement, or the
   direct transfer target (Jmp/Jcc/Call/Trap/Callrat target, Lea
   constant); payload word 2 carries slot 2's immediate or
   displacement, or Callrat's [src_ret].

   Slot discipline: two-operand forms put the destination (first
   operand) in slot 1 and the source in slot 2; one-operand forms use
   slot 1.

   Tags are specialized by operand-kind combination for the hot
   forms, so the dispatcher's jump table lands directly on e.g.
   reg<-reg moves with no kind tests; every family keeps a generic
   tag covering the remaining (including malformed, e.g.
   immediate-destination) combinations, decoded from the kind bits.
   The encoding is total — [pack] accepts every [Minstr.t] — and
   lossless: {!unpack} returns exactly the instruction and length
   packed, which the round-trip property test pins.

   The interpreter's flat dispatcher matches on literal tag values;
   the numbering here is the single source of truth and must not be
   renumbered without updating [Exec]. The decode-cache on/off
   differentials (packed loop against the per-instruction oracle)
   catch any drift. *)

(* tag values *)
let t_nop = 0
let t_mov_rr = 1
let t_mov_ri = 2
let t_mov_rm = 3
let t_mov_mr = 4
let t_mov_mi = 5
let t_mov_g = 6
let t_lea = 7
let t_bop_rr = 8
let t_bop_ri = 9
let t_bop_g = 10
let t_cmp_rr = 11
let t_cmp_ri = 12
let t_cmp_rm = 13
let t_cmp_g = 14
let t_push_r = 15
let t_push_i = 16
let t_push_g = 17
let t_pop_r = 18
let t_pop_g = 19
let t_jmp = 20
let t_jcc = 21
let t_jmpr_r = 22
let t_jmpr_g = 23
let t_call = 24
let t_callr_r = 25
let t_callr_g = 26
let t_ret = 27
let t_retr = 28
let t_retrat_r = 29
let t_retrat_g = 30
let t_callrat = 31
let t_syscall = 32
let t_trap = 33

let binop_code : Minstr.binop -> int = function
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

let cond_code : Minstr.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Ge -> 3
  | Gt -> 4
  | Le -> 5
  | Ult -> 6
  | Uge -> 7

(* (kind, reg, payload) of one operand. *)
let operand_bits : Minstr.operand -> int * int * int = function
  | Reg r -> (1, r, 0)
  | Imm k -> (2, 0, k)
  | Mem { base; disp } -> (3, base, disp)

let meta ~tag ~len ~sub ~k1 ~k2 ~r1 ~r2 =
  assert (tag >= 0 && tag < 64);
  assert (len >= 1 && len < 16);
  assert (sub >= 0 && sub < 16);
  assert (r1 >= 0 && r1 < 16 && r2 >= 0 && r2 < 16);
  tag lor (len lsl 6) lor (sub lsl 10) lor (k1 lsl 14) lor (k2 lsl 16) lor (r1 lsl 18)
  lor (r2 lsl 22)

let pack (i : Minstr.t) len =
  let m2 ~tag ~sub d s =
    let k1, r1, v1 = operand_bits d in
    let k2, r2, v2 = operand_bits s in
    (meta ~tag ~len ~sub ~k1 ~k2 ~r1 ~r2, v1, v2)
  in
  let m1 ~tag s =
    let k1, r1, v1 = operand_bits s in
    (meta ~tag ~len ~sub:0 ~k1 ~k2:0 ~r1 ~r2:0, v1, 0)
  in
  match i with
  | Nop -> (meta ~tag:t_nop ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, 0, 0)
  | Mov (d, s) ->
    let tag =
      match (d, s) with
      | Reg _, Reg _ -> t_mov_rr
      | Reg _, Imm _ -> t_mov_ri
      | Reg _, Mem _ -> t_mov_rm
      | Mem _, Reg _ -> t_mov_mr
      | Mem _, Imm _ -> t_mov_mi
      | _ -> t_mov_g
    in
    m2 ~tag ~sub:0 d s
  | Lea (d, b, k) -> (meta ~tag:t_lea ~len ~sub:0 ~k1:1 ~k2:1 ~r1:d ~r2:b, k, 0)
  | Binop (op, d, s) ->
    let tag =
      match (d, s) with
      | Reg _, Reg _ -> t_bop_rr
      | Reg _, Imm _ -> t_bop_ri
      | _ -> t_bop_g
    in
    m2 ~tag ~sub:(binop_code op) d s
  | Cmp (a, b) ->
    let tag =
      match (a, b) with
      | Reg _, Reg _ -> t_cmp_rr
      | Reg _, Imm _ -> t_cmp_ri
      | Reg _, Mem _ -> t_cmp_rm
      | _ -> t_cmp_g
    in
    m2 ~tag ~sub:0 a b
  | Push s ->
    m1 ~tag:(match s with Reg _ -> t_push_r | Imm _ -> t_push_i | Mem _ -> t_push_g) s
  | Pop d -> m1 ~tag:(match d with Reg _ -> t_pop_r | _ -> t_pop_g) d
  | Jmp t -> (meta ~tag:t_jmp ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, t, 0)
  | Jcc (c, t) -> (meta ~tag:t_jcc ~len ~sub:(cond_code c) ~k1:0 ~k2:0 ~r1:0 ~r2:0, t, 0)
  | Jmpr s -> m1 ~tag:(match s with Reg _ -> t_jmpr_r | _ -> t_jmpr_g) s
  | Call t -> (meta ~tag:t_call ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, t, 0)
  | Callr s -> m1 ~tag:(match s with Reg _ -> t_callr_r | _ -> t_callr_g) s
  | Ret -> (meta ~tag:t_ret ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, 0, 0)
  | Retr r -> (meta ~tag:t_retr ~len ~sub:0 ~k1:1 ~k2:0 ~r1:r ~r2:0, 0, 0)
  | Retrat s -> m1 ~tag:(match s with Reg _ -> t_retrat_r | _ -> t_retrat_g) s
  | Callrat { target; src_ret } ->
    (meta ~tag:t_callrat ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, target, src_ret)
  | Syscall -> (meta ~tag:t_syscall ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, 0, 0)
  | Trap a -> (meta ~tag:t_trap ~len ~sub:0 ~k1:0 ~k2:0 ~r1:0 ~r2:0, a, 0)

(* meta-word field accessors *)
let tag m = m land 63
let len m = (m lsr 6) land 15
let sub m = (m lsr 10) land 15
let kind1 m = (m lsr 14) land 3
let kind2 m = (m lsr 16) land 3
let reg1 m = (m lsr 18) land 15
let reg2 m = (m lsr 22) land 15

let operand_of k r v : Minstr.operand =
  match k with
  | 1 -> Reg r
  | 2 -> Imm v
  | 3 -> Mem { base = r; disp = v }
  | _ -> invalid_arg "Packed.operand_of: empty operand slot"

let unpack m v1 v2 : Minstr.t * int =
  let op1 () = operand_of (kind1 m) (reg1 m) v1 in
  let op2 () = operand_of (kind2 m) (reg2 m) v2 in
  let i : Minstr.t =
    match tag m with
    | 0 -> Nop
    | 1 | 2 | 3 | 4 | 5 | 6 -> Mov (op1 (), op2 ())
    | 7 -> Lea (reg1 m, reg2 m, v1)
    | 8 | 9 | 10 -> Binop (Minstr.all_binops.(sub m), op1 (), op2 ())
    | 11 | 12 | 13 | 14 -> Cmp (op1 (), op2 ())
    | 15 | 16 | 17 -> Push (op1 ())
    | 18 | 19 -> Pop (op1 ())
    | 20 -> Jmp v1
    | 21 -> Jcc (Minstr.all_conds.(sub m), v1)
    | 22 | 23 -> Jmpr (op1 ())
    | 24 -> Call v1
    | 25 | 26 -> Callr (op1 ())
    | 27 -> Ret
    | 28 -> Retr (reg1 m)
    | 29 | 30 -> Retrat (op1 ())
    | 31 -> Callrat { target = v1; src_ret = v2 }
    | 32 -> Syscall
    | 33 -> Trap v1
    | t -> invalid_arg (Printf.sprintf "Packed.unpack: bad tag %d" t)
  in
  (i, len m)
