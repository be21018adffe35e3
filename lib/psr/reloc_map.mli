(** Per-function relocation maps (Figure 2 of the paper).

    A relocation map fixes, for one function and one randomization
    epoch, where every piece of its program state lives in the
    translated world:

    - *register reallocation*: each allocatable register is relocated
      to another register or to a random slot in the frame's
      randomization pad;
    - *stack slot coloring*: the value/shadow slots, the outgoing
      staging region, the locals region and the translator's own
      temporaries get random, non-overlapping offsets in the padded
      frame. The locals region moves as one block (arrays are indexed
      dynamically, so their interior layout must survive);
    - *randomized calling convention*: incoming arguments live at
      random offsets of the callee's padded frame, where callers
      place them, and the return address is relocated to a random
      slot — so even a bare [ret] gadget faces pad-sized entropy.

    Offsets that do not correspond to any known object (an attacker
    jumping mid-instruction can synthesize any displacement) are
    mapped through a per-function keyed hash into the pad, so the
    translation is total and deterministic within an epoch. *)

type loc = Lreg of int | Lpad of int  (** relocated register / frame offset *)

type t

val generate :
  Config.t ->
  Hipstr_util.Rng.t ->
  Hipstr_isa.Desc.t ->
  Hipstr_compiler.Fatbin.func_sym ->
  hot_regs:int list ->
  t
(** Draw a fresh map. [hot_regs] are the function's most-used
    registers (the global register cache keeps the top 3 in registers
    at O2+; O3 additionally guarantees at least 3 register-resident
    registers). *)

val fname : t -> string
(** The name of the function the map was drawn for. *)

val padded_frame : t -> int
(** Original frame plus randomization pad. *)

val pad : t -> int

val ret_off : t -> int
(** Relocated return-address slot. *)

val vm_temp_off : t -> int
(** A pad slot reserved for the translator's own spills; never
    visible to source code. *)

val map_reg : t -> int -> loc
(** Relocation of an allocatable register; [sp] and the scratch
    registers map to themselves. *)

val map_slot : t -> int -> int
(** Relocation of a source sp-relative frame offset (total:
    unrecognized offsets hash into the pad). Offsets at or beyond the
    original frame size resolve as incoming-argument accesses. *)

val arg_off : t -> int -> int
(** Where callers must place incoming argument [j], as an offset of
    this function's padded frame. *)

val regs_in_registers : t -> int
(** How many allocatable registers are relocated to registers. *)

val randomized_locations : t -> int list
(** All assigned pad offsets, ascending (for tests: distinctness,
    range). *)

val fingerprint : t -> int
(** A value that changes whenever the map is re-drawn (each draw pulls
    a fresh 32-bit hash key from the RNG). The VM's translation memo
    keys on it so memoized code is never re-installed against a map it
    was not translated for. *)

val entropy_bits_per_param : Config.t -> float
(** log2 of the number of positions one relocated parameter can take
    (word-granular within the pad). *)

val codec : t Hipstr_util.Wire.codec
(** The complete map, embedded frame layout included (snapshots;
    deterministic byte layout). Reading refuses a padded frame other
    than the frame plus the pad, an object placed outside
    [\[0, frame' - 16)], a register mapped outside 0..15 and a count
    of kept registers outside 0..16, so a restored run never addresses
    a frame slot outside its frame. *)
