(** The RISC ("ARM-like") instruction set.

    A 32-bit, 16-register load/store machine. Instructions are one or
    two 4-byte words (a second word carries a 32-bit immediate or
    branch target, literal-pool style) and must be 4-byte aligned;
    there are no memory operands on ALU operations, calls write a link
    register instead of pushing, and returns are [bx lr]. Strict
    alignment means gadget mining can only discover *intended*
    instruction boundaries — the paper measures the resulting attack
    space to be 52x smaller than x86's, and this encoding reproduces
    that asymmetry.

    Registers: r0-r11 general purpose (r0-r3 arguments, r0 result,
    r4-r11 callee-saved), r12 compiler scratch, r13=sp, r14=lr,
    r15 reserved. *)

val desc : Desc.t

val length : Minstr.t -> int
(** Encoded length in bytes (4, 8 or 12). Depends on immediate widths
    but not on layout: branch forms are always wide.
    @raise Invalid_argument unless [encodable]. *)

val encodable : Minstr.t -> bool
(** Whether the instruction shape is directly encodable: no memory
    operands on ALU ops, no push of an immediate, no plain [Ret]. *)

val encode_into : Bytes.t -> pos:int -> at:int -> Minstr.t -> int
(** Write the encoding into the bytes at [pos] and return the position
    past it.
    @raise Invalid_argument unless [encodable], or when the bytes end
    before the encoding does. *)

val decode : read:(int -> int) -> int -> (Minstr.t * int) option
