(** The symmetric multi-ISA stack frame (Section 3.2 of the paper).

    Both ISA backends use the *same* frame layout for a function, so
    that at migration time stack contents correspond
    position-for-position:

    {v
    sp + 0                     outgoing argument / syscall staging slots
    sp + locals_off            locals area (arrays, address-taken scalars)
    sp + <value slots>         one word per value needing a slot
                               (spill homes and call-crossing shadows)
    sp + scratch_off           translator staging slots (2 words)
    sp + frame_bytes - 4       return address slot
    v}

    Conventions producing identical layouts on both ISAs:
    - CISC: [call] pushes the return address; the prologue subtracts
      [frame_bytes - 4], so the pushed word *is* the return-address
      slot.
    - RISC: [call] writes the link register; the prologue subtracts
      [frame_bytes] and stores [lr] into the return-address slot.

    In both cases the callee's [sp] is the caller's [sp] minus
    [frame_bytes], and incoming argument [j] is at
    [sp + frame_bytes + 4*j] (the caller's outgoing slot [j]). *)

type t = {
  outgoing_words : int;
  locals_off : int;
  locals_bytes : int;
  slot_off : int array;  (** value id -> frame byte offset, or -1 *)
  scratch_off : int;
  ret_off : int;  (** = frame_bytes - 4 *)
  frame_bytes : int;  (** 16-byte aligned *)
}

val layout : Ir.func -> needs_slot:bool array -> t
(** [needs_slot] is the union of both ISAs' slot requirements. *)

val incoming_arg_off : t -> int -> int
