(** The Galileo gadget-mining algorithm (Shacham, CCS 2007).

    Scans code for every instruction sequence that ends in a return
    and could serve as a ROP gadget. On the CISC ISA, decoding starts
    at *every byte offset* before a 0xC3 byte, so unintentional
    gadgets hidden in immediates and displacements are found, exactly
    as on x86. On the RISC ISA only word-aligned decodes are possible,
    which is why its attack surface is dramatically smaller (the paper
    measures 52x on real ARM vs x86).

    Also mines JOP gadgets (sequences ending in an indirect jump or
    call) for the jump-oriented-programming attack surface. *)

type kind = Ret_gadget | Jop_gadget

type gadget = {
  g_addr : int;  (** address of the first instruction *)
  g_instrs : Hipstr_isa.Minstr.t list;  (** includes the terminator *)
  g_bytes : int;
  g_kind : kind;
  g_aligned : bool;  (** starts on an intended instruction boundary *)
}

val mine :
  read:(int -> int) ->
  which:Hipstr_isa.Desc.which ->
  ranges:(int * int) list ->
  ?aligned_starts:(int -> bool) ->
  unit ->
  gadget list
(** [mine ~read ~which ~ranges ()] finds all gadgets in the byte
    ranges [(start, size)]: suffixes starting up to 24 bytes before a
    terminator, at most 6 instructions long. [aligned_starts] marks
    intended instruction boundaries for the [g_aligned] flag
    (defaults to all unaligned). Gadgets are deduplicated by start
    address per kind. *)

val mine_program : Hipstr_machine.Mem.t -> Hipstr_compiler.Fatbin.t -> Hipstr_isa.Desc.which -> gadget list
(** Mine a loaded fat binary's code section for one ISA, with
    alignment information from the symbol table. *)

(** {2 Gadget effects}

    A small abstract interpretation of the gadget body classifying
    what it does with attacker-controlled stack data — the input both
    to viability analysis (Section 6) and to the brute-force
    simulation's parameter counts. *)

type effect = {
  e_pops : (int * int) list;
      (** registers populated from stack data: (register, sp offset) *)
  e_reg_reads : int list;  (** non-sp registers read *)
  e_reg_writes : int list;  (** non-sp registers written (any source) *)
  e_stack_slots : int list;  (** distinct sp-relative offsets accessed *)
  e_mem_writes : bool;  (** writes through a non-sp pointer *)
  e_has_syscall : bool;
  e_stack_delta : int option;  (** sp movement, if statically known *)
}

val classify : sp:int -> gadget -> effect

val is_viable : effect -> bool
(** The paper's viability criterion: the gadget populates at least
    one register with an attacker-supplied value from the stack. *)

val randomizable_params : effect -> int
(** The number of PSR-randomizable parameters the gadget exposes:
    distinct registers touched + distinct stack slots + one for the
    relocated return-address slot. Feeds Table 2. *)

val count : gadget list -> kind -> int
