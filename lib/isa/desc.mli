(** Per-ISA descriptors.

    A descriptor captures everything the interpreter, the compiler and
    the PSR virtual machine need to know about an ISA besides its byte
    encoding: register-file shape, stack/link registers, calling
    convention, and alignment. {!Isa.desc} returns the two concrete
    instances. *)

type which = Cisc | Risc

type t = {
  which : which;
  nregs : int;
  sp : Minstr.reg;  (** stack pointer register *)
  lr : Minstr.reg option;  (** link register, if calls write one *)
  call_pushes_ret : bool;
      (** true: [Call] pushes the return address (x86 style);
          false: [Call] writes it to [lr] (ARM style) *)
  scratch : Minstr.reg;
      (** register reserved by the compiler and the PSR translator for
          lowering sequences; never allocated to program values *)
  scratch2 : Minstr.reg;  (** second reserved scratch *)
  arg_regs : Minstr.reg list;
      (** registers carrying the first arguments; remaining arguments
          go to the caller's outgoing-argument stack slots. Both ISAs
          here pass all arguments in caller frame slots (the symmetric
          multi-ISA frame), so this is empty. *)
  ret_reg : Minstr.reg;  (** function result register *)
  callee_saved : Minstr.reg list;
  caller_saved : Minstr.reg list;
      (** allocatable registers a call may clobber *)
  allocatable : Minstr.reg list;
      (** registers the register allocator may assign to values *)
  align : int;  (** instruction alignment: 1 for CISC, 4 for RISC *)
}

val reg_name : t -> Minstr.reg -> string

val other : which -> which
