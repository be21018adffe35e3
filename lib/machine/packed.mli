(** Packed instruction encoding for the flat-dispatch interpreter.

    A decoded {!Hipstr_isa.Minstr.t} flattens into three unboxed ints
    — a meta word (tag, length, sub-opcode, operand kinds and
    registers) plus two payload words (immediates, displacements,
    transfer targets) — stored stride-wise in a block's [db_code]
    array. The encoding is total and lossless: {!unpack} inverts
    {!pack} exactly, for every decodable instruction form (pinned by
    the round-trip property test). See the implementation header for
    the exact bit layout and tag numbering, which [Exec]'s flat
    dispatcher matches against as literal ints. *)

val pack : Hipstr_isa.Minstr.t -> int -> int * int * int
(** [pack i len] is [(meta, v1, v2)]. [len] is the encoded length in
    bytes (1..12). *)

val unpack : int -> int -> int -> Hipstr_isa.Minstr.t * int
(** [unpack meta v1 v2] recovers the packed instruction and length.
    @raise Invalid_argument on a word triple {!pack} cannot emit. *)

(** Meta-word field accessors (dispatcher and test introspection). *)

val tag : int -> int
val len : int -> int
val sub : int -> int
