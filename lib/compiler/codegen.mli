(** Per-ISA code generation.

    Emits generic machine instructions for one function, using the
    ISA's addressing modes where it has them (the CISC backend uses
    memory operands; the RISC backend goes through its scratch
    registers, load/store style). Control-flow and address immunities
    are left symbolic ({!target}) and resolved at link time; all
    instruction lengths are already final at generation time, so block
    offsets and the extended symbol table's address ranges are exact.

    Direct and indirect calls emit plain [Call]/[Callr]: rewriting
    them into the RAT-maintaining macro-ops is the PSR translator's
    job at run time. *)

type target =
  | Tblock of Ir.label  (** a block of the same function *)
  | Toffset of int  (** byte offset within the same function *)
  | Tfunc of string  (** another function's entry *)
  | Tglobal of string  (** a global's data address *)

type item = { it_ins : Hipstr_isa.Minstr.t; it_target : target option }

type t = {
  cg_items : item array;
  cg_block_off : int array;  (** byte offset of each IR block's code *)
  cg_block_size : int array;
  cg_size : int;
  cg_callsites : (int * int) list;
      (** call-site id -> byte offset of the return point (the
          instruction after the call) *)
}

val gen : Hipstr_isa.Desc.t -> Ir.func -> Frame.t -> Regalloc.result -> Liveness.t -> t

val encode_all :
  Hipstr_isa.Desc.t ->
  base:int ->
  block_addr:(Ir.label -> int) ->
  func_entry:(string -> int) ->
  global_addr:(string -> int) ->
  t ->
  string
(** Final machine code for the function placed at [base]. *)
