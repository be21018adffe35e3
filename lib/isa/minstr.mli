(** Generic machine instructions.

    Both simulated ISAs — the variable-length CISC ("x86-like") and the
    fixed-width RISC ("ARM-like") — decode to this one AST, and the
    interpreter executes it with only a small per-ISA descriptor
    ({!Desc.t}) to vary call/return conventions. What actually differs
    between the ISAs, and what the security evaluation observes, is the
    byte-level *encoding*, reached through {!Isa}.

    Control-transfer targets are stored as absolute addresses in the
    decoded form; encoders turn them into PC-relative displacements.

    The three pseudo-instructions [Trap], [Callrat] and [Retrat] exist
    only in translated code emitted by the PSR virtual machine:
    [Trap] is an exit stub back to the translator, and
    [Callrat]/[Retrat] model the paper's modified call/return
    macro-ops that maintain and consult the hardware Return Address
    Table. *)

type reg = int
(** Register index; the valid range depends on the ISA. *)

type cond = Eq | Ne | Lt | Ge | Gt | Le | Ult | Uge

type binop = Add | Sub | Mul | Divs | Rems | And | Or | Xor | Shl | Shr | Sar

type operand =
  | Reg of reg
  | Imm of int  (** signed 32-bit immediate *)
  | Mem of { base : reg; disp : int }  (** address [base] + [disp] *)

type t =
  | Mov of operand * operand  (** destination, source *)
  | Lea of reg * reg * int  (** [Lea (d, b, k)]: d := b + k *)
  | Binop of binop * operand * operand
      (** two-operand form: destination is also first source *)
  | Cmp of operand * operand  (** sets flags from first - second *)
  | Push of operand
  | Pop of operand
  | Jmp of int
  | Jcc of cond * int
  | Jmpr of operand  (** indirect jump *)
  | Call of int
  | Callr of operand  (** indirect call *)
  | Ret  (** CISC-style: pops the return address *)
  | Retr of reg  (** RISC-style: returns via the link register *)
  | Syscall
  | Nop
  | Trap of int  (** VM exit stub carrying the source address *)
  | Callrat of { target : int; src_ret : int }
      (** translated call: records [src_ret -> fallthrough] in the RAT,
          performs the ISA's call-state side effect with [src_ret], and
          jumps to the (translated) [target] *)
  | Retrat of operand
      (** translated return: reads a *source* return address from the
          operand and jumps to its RAT translation; a RAT miss traps *)

val all_conds : cond array
val all_binops : binop array

val negate_cond : cond -> cond

val string_of_cond : cond -> string
val string_of_binop : binop -> string

val to_string : reg_name:(reg -> string) -> t -> string
(** Disassembler-style rendering, parameterized by the ISA's register
    names. *)

val is_control : t -> bool
(** True for instructions that end a basic block (all jumps, calls,
    returns, traps). [Syscall] is not control: execution falls
    through. *)

val is_return : t -> bool
(** True for [Ret], [Retr] and [Retrat] — the gadget terminators. *)

val operands : t -> operand list
(** Source-level operands of the instruction, for analyses. *)
