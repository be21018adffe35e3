(** The CISC ("x86-like") instruction set.

    A 32-bit, 8-register machine with variable-length instructions,
    rich addressing modes (register, immediate and memory forms of
    most operations), stack-based argument passing, and a one-byte
    return opcode (0xC3). The variable-length unaligned encoding is
    deliberate: decoding may begin at any byte offset, so immediates
    and displacements give rise to *unintentional* gadgets exactly as
    on real x86 — the property the paper's attack-surface numbers
    depend on.

    Registers: 0=ax 1=bx 2=cx 3=dx 4=si 5=di 6=bp 7=sp. [bp] is the
    compiler scratch (compilation is frame-pointer-less), [ax] carries
    results and the syscall number; arguments travel on the stack. *)

val desc : Desc.t

val length : Minstr.t -> int
(** Encoded length in bytes. Depends only on the instruction shape,
    so layout can be computed before targets are resolved.
    @raise Invalid_argument on operand shapes the ISA cannot encode. *)

val encodable : Minstr.t -> bool
(** [length] does not raise. *)

val encode_into : Bytes.t -> pos:int -> at:int -> Minstr.t -> int
(** Write the byte encoding of an instruction placed at address [at]
    into the bytes at [pos] and return the position past it
    (control-flow targets become PC-relative displacements).
    @raise Invalid_argument on operand shapes the ISA cannot encode,
    or when the bytes end before the encoding does. *)

val decode : read:(int -> int) -> int -> (Minstr.t * int) option
(** [decode ~read addr] decodes one instruction at [addr], where
    [read a] fetches the byte at [a]. [None] if the bytes do not form
    a valid instruction. *)
