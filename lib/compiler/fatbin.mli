(** Fat binaries and the extended symbol table.

    A fat binary carries one code section per ISA for the same
    program, a common ISA-agnostic data section, and the per-function
    metadata the PSR virtual machine and the migration runtime consume
    (Figure 2 of the paper): frame layout, per-value homes on each
    ISA, per-basic-block address ranges and live-in sets, and
    call-site return addresses matched across ISAs. *)

type location = Lreg of int | Lslot of int  (** register, or frame byte offset *)

type decoded = {
  dc_addr : int array;
      (** the start of each instruction, ascending, then the end of the
          last one (one more entry than [dc_instr]) *)
  dc_instr : Hipstr_isa.Minstr.t array;
}
(** A function's code in one ISA as a decoded instruction stream (see
    {!decoded}). *)

type image = {
  im_entry : int;
  im_size : int;
  im_code : string;
  im_block_addr : int array;  (** per IR block *)
  im_block_size : int array;
  im_callsite_ret : (int * int) array;  (** site id, source return address *)
  im_homes : location array;  (** value id -> location *)
  im_reg_uses : int array;
      (** operand uses of each register (indices 0–15) in this code,
          decoded once at {!link} from the bytes {!load} writes
          ({!count_reg_uses}) — immutable, shared by every system
          booted from the binary *)
  im_decoded : decoded option Atomic.t;  (** read it through {!decoded} *)
}

type func_sym = {
  fs_name : string;
  fs_ir : Ir.func;
  fs_frame : Frame.t;
  fs_live_in : int list array;  (** per block: value ids live at entry *)
  fs_cisc : image;
  fs_risc : image;
}

type t = {
  fb_funcs : func_sym array;
  fb_globals : (string * int) list;  (** name -> data address *)
  fb_inits : (int * int list) list;  (** data address -> initial words *)
  fb_data_size : int;
  fb_fingerprint : int;
      (** FNV-1a over both ISAs' [main] entries and every function's
          entry, size and code bytes, computed once at {!link}: the
          identity snapshot images and memo artifacts are pinned to *)
  fb_baseline : Hipstr_machine.Mem.t option Atomic.t;  (** read it through {!baseline} *)
}

val link : Ir.program -> t
(** Allocate addresses, run both backends, encode, and assemble the
    symbol table.
    @raise Failure if the program does not validate. *)

val count_reg_uses :
  Hipstr_isa.Desc.which -> read:(int -> int) -> lo:int -> hi:int -> int array
(** Operand uses of each register (a 16-slot array) in the
    instructions decoded from [lo] up to [hi] through [read] (the
    decoders' reader contract), stopping at the first undecodable
    byte. *)

val load : t -> Hipstr_machine.Mem.t -> unit
(** Write both code sections and the initialized data section into
    simulated memory. *)

val baseline : t -> Hipstr_machine.Mem.t
(** A fresh address space after {!load}, built once per binary on
    first use: the pristine image a checkpoint diffs guest memory
    against, and the memory static analyses (gadget mining,
    disassembly) read. Shared by every caller and domain that uses
    this binary, so it must never be written. Safe to call from
    several domains at once. *)

val image : func_sym -> Hipstr_isa.Desc.which -> image

val decoded : func_sym -> Hipstr_isa.Desc.which -> decoded
(** The function's code in that ISA, decoded once from the bytes
    {!load} writes: a linear decode from the entry that stops at the
    end of the code or at the first undecodable byte. It equals a
    decode of freshly loaded memory, instruction by instruction
    (decoders read only the bytes of the instruction they decode).
    Built on first use, per function and ISA, and shared read-only by
    every VM and domain that uses the binary; never written after it is
    published. Safe to call from several domains at once. *)

val instr_index : decoded -> int -> int
(** The index of the instruction that starts at the address (binary
    search over [dc_addr]), or [-1] if none does. *)

val find_func : t -> string -> func_sym
(** @raise Not_found *)

val entry : t -> Hipstr_isa.Desc.which -> int
(** Address of [main]. *)

val func_at : t -> Hipstr_isa.Desc.which -> int -> func_sym option
(** The function whose code section contains the address. A binary
    search: it relies on {!link} laying the functions out disjoint and
    in [fb_funcs] order on both ISAs. *)

val block_at : t -> Hipstr_isa.Desc.which -> int -> (func_sym * int) option
(** The function and IR block label whose code contains the address:
    the lowest such label of {!func_at}'s function. *)

val block_starting_at : t -> Hipstr_isa.Desc.which -> int -> (func_sym * int) option
(** The block whose first instruction is at exactly this address: the
    lowest such label of {!func_at}'s function. *)

val callsite_of_ret : t -> Hipstr_isa.Desc.which -> int -> (func_sym * int) option
(** Map a source return address back to (function, site id). Only the
    function holding [addr - 1], the call's last byte, is searched. *)

val callsite_ret : func_sym -> Hipstr_isa.Desc.which -> int -> int option
(** The return address of call site [site] in the given image — the
    forward direction of {!callsite_of_ret}, as an indexed scan so the
    migration stack walk does not allocate an assoc list per frame. *)

val global_addr : t -> string -> int
(** @raise Not_found *)

val code_bytes : t -> Hipstr_isa.Desc.which -> (int * int) list
(** [(start, size)] ranges of code in that ISA's section, one per
    function — the gadget scanner's search space. *)
