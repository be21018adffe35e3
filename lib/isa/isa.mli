(** The ISA table: the one place that knows which descriptor, name,
    image tag, encoder and decoder belong to each {!Desc.which}.

    The two encodings themselves ([Cisc], the variable-length
    "x86-like" set, and [Risc], the aligned "ARM-like" set) are
    private to this library, so no other layer can pick an
    implementation on its own: every per-ISA dispatch goes through
    these functions. *)

val desc : Desc.which -> Desc.t

val name : Desc.which -> string
(** ["cisc"] or ["risc"]: the label in metrics, traces and the CLI. *)

val of_name : string -> Desc.which option
(** Inverse of {!name}, case-insensitive, also accepting ["x86"] and
    ["arm"]. *)

val tag : Desc.which -> int
(** The ISA's byte in snapshot images: 0 for CISC, 1 for RISC. *)

val of_tag : int -> Desc.which
(** @raise Hipstr_util.Wire.Corrupt on an unknown tag. *)

val codec : Desc.which Hipstr_util.Wire.codec
(** An ISA field of an image: its {!tag} byte. *)

val length : Desc.which -> Minstr.t -> int
(** Encoded length in bytes. It depends only on the instruction's
    shape and immediate widths, never on its address, so layout can be
    computed before targets are resolved.
    @raise Invalid_argument unless {!encodable}. *)

val encodable : Desc.which -> Minstr.t -> bool
(** Whether the ISA encodes this operand shape directly. The PSR
    translator emulates every other shape with scratch-register
    sequences. *)

val encode : Desc.which -> at:int -> Minstr.t -> string
(** The bytes of an instruction placed at address [at]; control-flow
    targets become the ISA's displacement form. Allocates exactly
    {!length} bytes.
    @raise Invalid_argument unless {!encodable}.
    @raise Failure if the encoder writes other than {!length} bytes. *)

val encode_into : Desc.which -> Bytes.t -> pos:int -> at:int -> Minstr.t -> int
(** {!encode} writing into caller-owned bytes at [pos], returning the
    position past the instruction, so a whole unit encodes into one
    string of its exact size with no per-instruction allocation.
    @raise Invalid_argument unless {!encodable}, or when the bytes end
    before the encoding does. *)

val decode : Desc.which -> read:(int -> int) -> int -> (Minstr.t * int) option
(** [decode w ~read addr] decodes one instruction at [addr], where
    [read a] fetches the byte at [a], and returns it with its length.
    [None] if the bytes do not form a valid instruction. A successful
    decode reads only the bytes of the instruction it returns. *)
