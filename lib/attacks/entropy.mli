(** Entropy comparison across defenses (Figure 7).

    For a gadget chain of length [n], each defense admits an attack
    with some per-attempt success probability; "entropy" in the
    figure's sense is the expected number of states an attacker must
    search (1/success), plotted capped at 1024 as in the paper:

    - Isomeron and heterogeneous-ISA migration alone flip one coin per
      gadget: 2^n;
    - PSR-based systems additionally randomize the chaining slot of
      every gadget over the pad, and — being run-time randomizers —
      re-randomize on every crash, so failed guesses cannot be
      accumulated;
    - HIPStR compounds PSR with the ISA coin. *)

type curve = { label : string; values : (int * float) list  (** chain length -> entropy *) }

val isomeron : max_chain:int -> curve
val hipstr : cfg:Hipstr_psr.Config.t -> max_chain:int -> curve

val cap : float
(** The figure's axis cap (1024). *)

val capped : float -> float

val all : cfg:Hipstr_psr.Config.t -> max_chain:int -> curve list
