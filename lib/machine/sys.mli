(** The simulated operating-system surface.

    Four syscalls are enough for the workloads and the attacks:

    - [1] exit: terminate with the code in the first argument.
    - [3] brk: extend the heap by the first argument bytes; returns
      the old break (a bump allocator, never freed).
    - [4] print_int: append the first argument to the output trace.
      Workload outputs are compared across native/PSR/HIPStR runs
      through this trace.
    - [11] execve: the attack goal. Records that a shell was spawned
      along with the argument registers, and halts. Mirrors the
      paper's four-gadget [execve()] shellcode target.

    Conventions: the syscall number is in [ax]/[r0] and arguments in
    [bx,cx,dx]/[r1-r3]; the result returns in [ax]/[r0]. *)

type outcome = Continue | Halt_exit of int | Halt_shell

type t = {
  mutable brk : int;
  mutable output : int list;  (** reversed print_int trace *)
  mutable shell : (int * int * int) option;  (** execve argument registers *)
  mutable exit_code : int option;
}

val create : unit -> t

val reset : t -> unit
(** Back to the state {!create} returns: break at the heap base, no
    output, no shell, no exit code. *)

val output : t -> int list
(** The print trace in program order. *)

val handle : t -> number:int -> args:int * int * int -> int * outcome
(** [handle os ~number ~args] performs the syscall; returns the value
    for the result register and what the machine should do next.
    Unknown syscall numbers return [-1] and continue (as ENOSYS). *)

val save : Hipstr_util.Wire.w -> t -> unit
(** Serialize the OS surface: break, output trace, shell/exit state
    (snapshots). *)

val restore : t -> Hipstr_util.Wire.r -> unit
(** Overwrite this OS state from a {!save} image.
    @raise Hipstr_util.Wire.Corrupt on a malformed image. *)
