(** Fat binaries and the extended symbol table.

    A fat binary carries one code section per ISA for the same
    program, a common ISA-agnostic data section, and the per-function
    metadata the PSR virtual machine and the migration runtime consume
    (Figure 2 of the paper): frame layout, per-value homes on each
    ISA, per-basic-block address ranges and live-in sets, and
    call-site return addresses matched across ISAs. *)

type location = Lreg of int | Lslot of int  (** register, or frame byte offset *)

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

val image : func_sym -> Hipstr_isa.Desc.which -> image

val find_func : t -> string -> func_sym
(** @raise Not_found *)

val entry : t -> Hipstr_isa.Desc.which -> int
(** Address of [main]. *)

val func_at : t -> Hipstr_isa.Desc.which -> int -> func_sym option
(** The function whose code section contains the address. *)

val block_at : t -> Hipstr_isa.Desc.which -> int -> (func_sym * int) option
(** The function and IR block label whose code contains the address. *)

val block_starting_at : t -> Hipstr_isa.Desc.which -> int -> (func_sym * int) option
(** The block whose first instruction is at exactly this address. *)

val callsite_of_ret : t -> Hipstr_isa.Desc.which -> int -> (func_sym * int) option
(** Map a source return address back to (function, site id). *)

val callsite_ret : func_sym -> Hipstr_isa.Desc.which -> int -> int option
(** The return address of call site [site] in the given image — the
    forward direction of {!callsite_of_ret}, as an indexed scan so the
    migration stack walk does not allocate an assoc list per frame. *)

val global_addr : t -> string -> int
(** @raise Not_found *)

val code_bytes : t -> Hipstr_isa.Desc.which -> (int * int) list
(** [(start, size)] ranges of code in that ISA's section, one per
    function — the gadget scanner's search space. *)
