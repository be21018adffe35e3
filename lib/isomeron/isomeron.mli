(** Isomeron (Davi et al., NDSS 2015) — the state-of-the-art JIT-ROP
    defense the paper compares against.

    Isomeron keeps two versions of the program — the original and a
    diversified twin — and flips a coin at *every function call and
    return* to decide which version executes next, so an attacker
    cannot predict which variant a gadget will run in: a chain of
    [n] gadgets succeeds with probability 2^-n.

    We model Isomeron rather than re-implement its instrumentation
    (the substitution is recorded in DESIGN.md): its security is fully
    captured by the per-gadget coin flip, and its performance by the
    per-call/return shepherding cost. Davi et al. report that their
    program shepherding "renders CPU optimizations like branch
    prediction ineffective"; accordingly the cost model charges, for
    every dynamic call and return, an execution-path-diversifier
    lookup plus a return-address-prediction miss. The model is applied
    to instruction/call/return/cycle counts measured by running the
    workload natively on the simulator. *)

type t

val create : diversification_prob:float -> t
(** [diversification_prob] is the coin-flip probability per
    call/return (1.0 = classic Isomeron; lower values model the
    partial-diversification sweep of Figures 8 and 14). *)

val diversification_prob : t -> float

val overhead_cycles :
  t -> calls:int -> returns:int -> float
(** Extra cycles Isomeron adds to an execution with these dynamic
    call/return counts. *)

val relative_performance :
  t -> native_cycles:float -> calls:int -> returns:int -> float
(** Performance relative to native (1.0 = native speed). *)

val chain_success_probability : t -> chain_len:int -> float
(** Probability an [n]-gadget same-variant chain executes as intended:
    each gadget independently survives with probability
    [1 - p + p/2]. *)

val entropy_bits : t -> chain_len:int -> float
(** The defense's entropy against that chain: -log2 of the success
    probability (= [chain_len] bits at p = 1). *)

val gadget_unaffected_probability : reg_operands:int -> float
(** Probability a gadget behaves identically in both program variants
    (the tailored-attack escape hatch of Section 7.1): the twin is a
    register-permuted clone, so a gadget with no register operands is
    unaffected, and each register operand survives only if the
    permutation fixes it. *)
