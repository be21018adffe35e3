(** Branch predictor timing model.

    Bimodal 2-bit counters for conditional branches, a last-target
    BTB for indirect jumps, and a return-address stack for returns.
    Only prediction accuracy is modelled; the machine charges the
    core's misprediction penalty when a prediction is wrong.

    The paper's Isomeron comparison leans on this component: program
    shepherding defeats return-address-stack and BTB prediction, which
    is the dominant cost Isomeron pays and HIPStR does not. *)

type t

val create : unit -> t

val predict_cond : t -> pc:int -> taken:bool -> bool
(** Record the outcome of a conditional at [pc]; true if predicted
    correctly. *)

val predict_indirect : t -> pc:int -> target:int -> bool
(** Last-target BTB prediction for an indirect jump/call. *)

val push_ras : t -> int -> unit
(** Record a call's return address on the return-address stack. *)

val predict_return : t -> target:int -> bool
(** Pop the RAS and compare with the actual return target. *)

val mispredicts : t -> int
val lookups : t -> int

val reset : t -> unit
(** Back to the state {!create} returns: {!flush} plus zeroed
    accuracy statistics. *)

val flush : t -> unit
(** Forget all learned state (bimodal counters, BTB, RAS) but keep
    the accuracy statistics — the predictor a process finds after
    another process used the core. *)

val save : Hipstr_util.Wire.w -> t -> unit
(** Serialize the exact predictor state (snapshots). *)

val restore : t -> Hipstr_util.Wire.r -> unit
(** Overwrite this predictor from a {!save} image.
    @raise Hipstr_util.Wire.Corrupt on a counter outside [0..3], a
    negative return-address stack top, or a malformed image. *)
