(** The multi-ISA compiler's intermediate representation.

    A conventional non-SSA three-address IR over virtual registers
    ("values"). Two properties matter for the multi-ISA design:

    - Comparison results never cross block boundaries as condition
      flags: branches ([Br]) carry their comparison, and materialized
      booleans go through [Cmpset]. Flags are therefore dead at every
      block entry, which is one prerequisite for migration safety.
    - Address-taken scalars and arrays live in an ISA-agnostic
      "locals area" addressed by byte offset; everything else is a
      value that the per-ISA register allocators place independently,
      recorded in the extended symbol table. *)

type value = int
type label = int

type rv = V of value | C of int

type instr =
  | Def of value * rv
  | Bin of Hipstr_isa.Minstr.binop * value * rv * rv
  | Cmpset of Hipstr_isa.Minstr.cond * value * rv * rv
      (** destination := 1 if [a cond b] else 0 *)
  | Load of value * rv * int  (** dst := mem\[addr + k\] *)
  | Store of rv * int * rv  (** mem\[addr + k\] := src *)
  | Addr_local of value * int  (** dst := sp-relative locals-area address *)
  | Addr_global of value * string
  | Addr_func of value * string  (** dst := code address (per-ISA) *)
  | Call of { dst : value option; callee : string; args : rv list; site : int }
  | Calli of { dst : value option; fp : rv; args : rv list; site : int }
      (** indirect call through a function pointer *)
  | Syscall of { dst : value option; number : rv; args : rv list }

type term =
  | Ret of rv option
  | Jmp of label
  | Br of Hipstr_isa.Minstr.cond * rv * rv * label * label
      (** if [a cond b] goto first label else second *)

type block = { b_label : label; b_instrs : instr array; b_term : term }

type func = {
  fn_name : string;
  fn_params : value list;  (** parameter i is this value *)
  fn_nvals : int;
  fn_locals_bytes : int;
  fn_blocks : block array;  (** index = label; block 0 is the entry *)
  fn_nsites : int;  (** number of call sites (direct + indirect) *)
  fn_fp_values : value list;
      (** values that may hold function addresses (static taint) *)
}

type program = {
  pr_funcs : func list;
  pr_globals : (string * int * int list) list;  (** name, words, init *)
}

val defs : instr -> value list
val uses : instr -> rv list
val term_uses : term -> rv list
val successors : term -> label list

val values_of_rvs : rv list -> value list

val instr_has_call : instr -> bool
(** Direct call, indirect call, or syscall: clobbers caller-saved
    registers. *)

val validate : program -> (unit, string) result
(** Structural sanity: labels in range, values within [fn_nvals],
    every site id unique and below [fn_nsites], entry exists, a [main]
    function exists. *)
