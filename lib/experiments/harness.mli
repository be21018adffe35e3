(** Shared machinery for the per-figure experiment modules. *)

type perf = {
  pf_cycles : float;
  pf_instructions : int;
  pf_calls : int;
  pf_returns : int;
  pf_seconds : float;
}

val run_steady :
  ?cfg:Hipstr_psr.Config.t ->
  ?seed:int ->
  ?isa:Hipstr_isa.Desc.which ->
  mode:Hipstr.System.mode ->
  Hipstr_workloads.Workloads.t ->
  Hipstr.System.t * perf * int
(** Like {!run_workload}, but counters cover only the steady-state
    window after a warmup of a quarter of the native instruction
    count — the paper's fast-forward methodology. The extra int is the
    number of security migrations within the window. *)

val native_steady : Hipstr_workloads.Workloads.t -> perf
(** Memoized steady-state native baseline. *)

val native_perf : Hipstr_workloads.Workloads.t -> perf
(** Memoized native run on the CISC core — the baseline for every
    relative-performance figure. *)

val relative : native:perf -> perf -> float
(** Relative performance (1.0 = native speed), by cycle count. *)

val surface_of : Hipstr_workloads.Workloads.t -> Hipstr_attacks.Surface.report
(** Memoized Figure 3/4 analysis for a workload (CISC). *)

val spec_workloads : Hipstr_workloads.Workloads.t list
val with_httpd : Hipstr_workloads.Workloads.t list

val pct : float -> string
