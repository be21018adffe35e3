(** Tailored attacks that try to bypass execution diversification
    (Figure 8 and the end of Section 7.1).

    An attacker aware of the diversification interleaves gadgets from
    both variants/ISAs, or uses only gadgets whose behaviour is the
    same in both. For a diversification probability [p], the expected
    usable surface is, per gadget, [(1 - p) + p * u]: the coin either
    leaves the expected variant running, or the gadget must be
    diversification-invariant (probability [u]).

    Invariance differs sharply by technique — the paper's key point:
    - same-ISA (Isomeron): the twin is a register permutation, so a
      gadget with [k] register operands is invariant with probability
      ~[(1/8)^k], and register-free gadgets always are: hundreds
      survive at p=1;
    - cross-ISA (HIPStR): a CISC byte sequence means nothing on the
      RISC core, and the migration's stack transformation relocates
      the payload; only effect-free (nop-like) gadgets are invariant:
      almost nothing survives at p=1. *)

type technique = Isomeron_only | Psr_only | Psr_isomeron | Hipstr

type point = { p_prob : float; p_surface : float }

type curve = { t_label : string; t_points : point list }

val surface :
  technique ->
  base_gadgets:Hipstr_galileo.Galileo.effect list ->
  psr_gadgets:Hipstr_galileo.Galileo.effect list ->
  prob:float ->
  float
(** Expected usable gadget count. [base_gadgets] is the full in-cache
    set (techniques without PSR), [psr_gadgets] the PSR-surviving
    subset. *)

val curve :
  technique ->
  base_gadgets:Hipstr_galileo.Galileo.effect list ->
  psr_gadgets:Hipstr_galileo.Galileo.effect list ->
  probs:float list ->
  curve
