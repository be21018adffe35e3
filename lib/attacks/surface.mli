(** Attack-surface analysis (Figures 3 and 4).

    For one binary:
    - mine every gadget with Galileo;
    - decide, per gadget, the probability that PSR leaves its
      register/stack effect intact ("unobfuscated"): sampled over
      fresh relocation maps of the containing function, a gadget
      survives a map only if every register it touches is
      identity-mapped and every sp-relative slot it reads keeps its
      coloring (probability (4/pad)^slots). Gadgets that touch no
      randomizable state at all (pure nop/ret, syscall-only) are
      trivially unobfuscated — these make up the small residue the
      paper reports (1.96% on average), and the attacker still cannot
      tell which ones they are without executing them;
    - classify gadgets viable for brute force (they populate a
      register from attacker-controlled stack data — Section 6). *)

type gadget_info = {
  gi_gadget : Hipstr_galileo.Galileo.gadget;
  gi_effect : Hipstr_galileo.Galileo.effect;
  gi_unobfuscated_prob : float;
  gi_viable : bool;
  gi_params : int;  (** PSR-randomizable parameters *)
}

type report = {
  r_name : string;
  r_total : int;  (** classic ROP gadgets (return-terminated) *)
  r_jop : int;  (** indirect-jump/call-terminated gadgets *)
  r_unobfuscated : float;  (** expected count left intact by PSR *)
  r_viable : int;  (** viable for brute force *)
  r_unintentional : int;  (** gadgets at unintended decode offsets *)
  r_infos : gadget_info list;
}

val analyze :
  ?cfg:Hipstr_psr.Config.t ->
  seed:int ->
  name:string ->
  Hipstr_compiler.Fatbin.t ->
  Hipstr_isa.Desc.which ->
  report
(** Mines the binary's post-load image
    ({!Hipstr_compiler.Fatbin.baseline}) and classifies, over 12
    relocation-map draws per function. *)

val obfuscated_fraction : report -> float
val viable_fraction : report -> float
