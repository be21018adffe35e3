(** Deterministic open-loop traffic generation for the [httpd] victim.

    The serving substrate (ROADMAP item 3): connections are synthetic
    httpd processes whose network-buffer globals are staged before
    first execution, with seeded arrival times and a weighted request
    mix. One [(seed, procs, arrival, mix)] tuple names exactly one
    traffic trace — every gap, mix roll and payload word comes from a
    single {!Hipstr_util.Rng} stream — so fleet runs are replayable
    bit-for-bit. *)

(** Arrival process. Rates are requests per {e million guest cycles}
    (the simulator's only clock). [Poisson] draws i.i.d. exponential
    gaps; [Bursty] releases whole back-to-back bursts of [burst]
    connections with inter-burst gaps stretched to keep the long-run
    rate. *)
type arrival = Poisson of float | Bursty of { rate : float; burst : int }

val arrival_name : arrival -> string

val arrival_of_string : string -> (arrival, string) result
(** Parses ["poisson:RATE"] or ["bursty:RATE:BURST"]. Rejections name
    the offending field: non-positive or non-numeric rate, burst
    below 1, unknown model, wrong field count. *)

(** Request-line shapes:
    - [Valid]: in-bounds ASCII lines, served to completion;
    - [Oversized]: long enough to trample [handle_request]'s whole
      frame with unmapped words — a deterministic kill on a native
      server; under PSR/HIPStR relocation either neutralizes the
      smash or catches it as a clean wild-return kill;
    - [Malformed]: protocol violations (negative or >512-word staged
      lengths) the hardened parser answers with 400;
    - [Attack]: the overflow with a code address in the return slot. *)
type kind = Valid | Oversized | Malformed | Attack

val kinds : kind list
val kind_name : kind -> string

(** Integer mix weights; a connection's kind is a weighted draw. *)
type mix = { mx_valid : int; mx_oversized : int; mx_malformed : int; mx_attack : int }

val default_mix : mix
(** 90% valid, 4% oversized, 3% malformed, 3% attack. *)

val mix_name : mix -> string

val mix_of_string : string -> (mix, string) result
(** Parses ["V,O,M,A"] or ["valid=V,oversized=O,malformed=M,attack=A"]
    (omitted named weights default to 0). Weights must be
    non-negative with a positive total; duplicate kind keys, unknown
    kinds, negative weights and zero-sum mixes are each rejected with
    a message naming the offending part. *)

(** One connection: the request line it will present, when it
    arrives, and how many server-loop iterations it runs. *)
type conn = {
  cn_id : int;
  cn_tenant : int;
  cn_kind : kind;
  cn_arrival : float;  (** guest cycles since the fleet epoch *)
  cn_requests : int;  (** iterations the server loop will run *)
  cn_line : int array;  (** words staged at [net_input] *)
  cn_len : int;  (** value staged at [net_len] (malformed lines lie) *)
}

val generate :
  ?tenants:int -> seed:int -> procs:int -> arrival:arrival -> mix:mix -> unit -> conn list
(** [procs] connections in arrival order, tenant [i mod tenants]
    (default 4 tenants). @raise Invalid_argument on a non-positive
    [procs]/[tenants], rate, burst or mix total. *)

val victim : Hipstr_workloads.Workloads.t
(** The [httpd] workload every connection boots. *)

val fatbin : unit -> Hipstr_compiler.Fatbin.t
(** The victim's fat binary (memoized by {!Hipstr_workloads}) — what
    {!spawn} boots against and snapshot restore re-materializes
    from. *)

val ret_index : unit -> int
(** Word index of [handle_request]'s saved return address from the
    start of its overflowed buffer — read from the fat binary's frame
    metadata, the same arithmetic the ROP harness uses. *)

val stage : conn -> Hipstr.System.t -> unit
(** Poke the connection's request line into the system's
    [net_input]/[net_len]/[requests] globals (before it first runs). *)

val default_fuel : int

val spawn :
  ?obs:Hipstr_obs.Obs.t ->
  ?cfg:Hipstr_psr.Config.t ->
  ?seed:int ->
  ?start_isa:Hipstr_isa.Desc.which ->
  ?fuel:int ->
  ?spare:Hipstr_machine.Machine.t ->
  mode:Hipstr.System.mode ->
  conn ->
  Hipstr_cmp.Process.t
(** Materialize the connection: boot an httpd {!Hipstr_cmp.Process}
    with pid [cn_id] and a per-connection seed derived as
    [Pool.task_seed ~seed cn_id], then {!stage} its request line.
    [spare] reboots the machine of a retired connection instead of
    allocating one ({!Hipstr.System.of_fatbin}). *)
