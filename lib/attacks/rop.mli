(** Concrete ROP exploitation of the httpd victim (Figure 1 / Section 2).

    Builds a real execve shellcode chain against a loaded binary and
    delivers it through httpd's unchecked request-copy loop:

    - find the gadgets that pop each of the four syscall registers
      (ax=number, bx/cx/dx=arguments) from attacker-controlled stack
      data, avoiding clobbers of already-established registers;
    - lay out the overflow payload: filler up to the saved return
      address (the attacker has the frame layout from the symbol
      table — the full-disclosure threat model), then gadget
      addresses interleaved with their stack data;
    - terminate the chain by returning into a syscall instruction
      with ax = 11 (execve).

    On the native machine the chain spawns the shell. Under PSR the
    same bytes land in a randomized frame: the overflow misses the
    relocated return slot with overwhelming probability, and even a
    lucky hit executes gadgets whose operands PSR has rewritten. *)

type step = {
  s_reg : int;
  s_value : int;
  s_gadget : int;  (** gadget address *)
  s_frame_words : int;  (** stack words this gadget consumes after entry *)
}

type chain = {
  c_steps : step list;
  c_syscall_addr : int;  (** the final return target *)
  c_payload : int list;  (** words to write from the buffer start *)
  c_ret_index : int;  (** payload word index that lands on the saved return address *)
}

val build_chain :
  Hipstr_machine.Mem.t ->
  Hipstr_compiler.Fatbin.t ->
  Hipstr_isa.Desc.which ->
  victim_func:string ->
  chain option
(** Mine, select gadgets, and lay out the payload against the given
    victim function's frame ([None] if the binary's gadget population
    cannot express the chain). *)

type attack_outcome = Shell | Crashed of string | Survived

val deliver : Hipstr.System.t -> chain -> fuel:int -> attack_outcome
(** Poke the payload into [net_input]/[net_len] and run the system:
    [Shell] means the exploit won, [Crashed] that it faulted the
    process, [Survived] that the program finished normally (the
    defense silently absorbed the overflow). *)
