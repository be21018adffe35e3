type reg = int

type cond = Eq | Ne | Lt | Ge | Gt | Le | Ult | Uge

type binop = Add | Sub | Mul | Divs | Rems | And | Or | Xor | Shl | Shr | Sar

type operand = Reg of reg | Imm of int | Mem of { base : reg; disp : int }

type t =
  | Mov of operand * operand
  | Lea of reg * reg * int
  | Binop of binop * operand * operand
  | Cmp of operand * operand
  | Push of operand
  | Pop of operand
  | Jmp of int
  | Jcc of cond * int
  | Jmpr of operand
  | Call of int
  | Callr of operand
  | Ret
  | Retr of reg
  | Syscall
  | Nop
  | Trap of int
  | Callrat of { target : int; src_ret : int }
  | Retrat of operand

let all_conds = [| Eq; Ne; Lt; Ge; Gt; Le; Ult; Uge |]

let all_binops = [| Add; Sub; Mul; Divs; Rems; And; Or; Xor; Shl; Shr; Sar |]

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Gt -> Le
  | Le -> Gt
  | Ult -> Uge
  | Uge -> Ult

let string_of_cond = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"
  | Ult -> "ult"
  | Uge -> "uge"

let string_of_binop = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Divs -> "div"
  | Rems -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"

let pp_operand reg_name ppf = function
  | Reg r -> Format.pp_print_string ppf (reg_name r)
  | Imm k -> Format.fprintf ppf "$%d" k
  | Mem { base; disp } ->
    if disp = 0 then Format.fprintf ppf "[%s]" (reg_name base)
    else Format.fprintf ppf "[%s%+d]" (reg_name base) disp

let pp ~reg_name ppf t =
  let op = pp_operand reg_name in
  match t with
  | Mov (d, s) -> Format.fprintf ppf "mov %a, %a" op d op s
  | Lea (d, b, k) -> Format.fprintf ppf "lea %s, [%s%+d]" (reg_name d) (reg_name b) k
  | Binop (b, d, s) -> Format.fprintf ppf "%s %a, %a" (string_of_binop b) op d op s
  | Cmp (a, b) -> Format.fprintf ppf "cmp %a, %a" op a op b
  | Push s -> Format.fprintf ppf "push %a" op s
  | Pop d -> Format.fprintf ppf "pop %a" op d
  | Jmp a -> Format.fprintf ppf "jmp 0x%x" a
  | Jcc (c, a) -> Format.fprintf ppf "j%s 0x%x" (string_of_cond c) a
  | Jmpr s -> Format.fprintf ppf "jmp *%a" op s
  | Call a -> Format.fprintf ppf "call 0x%x" a
  | Callr s -> Format.fprintf ppf "call *%a" op s
  | Ret -> Format.pp_print_string ppf "ret"
  | Retr r -> Format.fprintf ppf "ret %s" (reg_name r)
  | Syscall -> Format.pp_print_string ppf "syscall"
  | Nop -> Format.pp_print_string ppf "nop"
  | Trap a -> Format.fprintf ppf "trap 0x%x" a
  | Callrat { target; src_ret } -> Format.fprintf ppf "call.rat 0x%x (src 0x%x)" target src_ret
  | Retrat s -> Format.fprintf ppf "ret.rat %a" op s

let to_string ~reg_name t = Format.asprintf "%a" (pp ~reg_name) t

let is_control = function
  | Jmp _ | Jcc _ | Jmpr _ | Call _ | Callr _ | Ret | Retr _ | Trap _ | Callrat _ | Retrat _ ->
    true
  | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ | Syscall | Nop -> false

let is_return = function
  | Ret | Retr _ | Retrat _ -> true
  | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ | Jmp _ | Jcc _ | Jmpr _ | Call _ | Callr _
  | Syscall | Nop | Trap _ | Callrat _ ->
    false

let operands = function
  | Mov (d, s) -> [ d; s ]
  | Lea (d, b, k) -> [ Reg d; Mem { base = b; disp = k } ]
  | Binop (_, d, s) -> [ d; s ]
  | Cmp (a, b) -> [ a; b ]
  | Push s -> [ s ]
  | Pop d -> [ d ]
  | Jmpr s | Callr s | Retrat s -> [ s ]
  | Retr r -> [ Reg r ]
  | Jmp _ | Jcc _ | Call _ | Ret | Syscall | Nop | Trap _ | Callrat _ -> []

