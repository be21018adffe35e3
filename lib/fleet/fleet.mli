(** The fleet serving harness: staged httpd connections sharded
    across a pool of heterogeneous CMPs, driven open-loop on one
    global guest-cycle clock.

    {b Model.} Shard [s] owns connection ids ≡ [s] (mod shards) and
    one {!Hipstr_cmp.Cmp.t}. Time advances in waves: every busy shard
    admits due arrivals (bounded by [fl_max_live], so overload queues
    instead of booting unbounded address spaces), runs one scheduling
    round and reaps completions; the global clock then advances by
    the maximum per-core cycle delta any shard accumulated (a
    gang-scheduled epoch). Idle fleets jump straight to the next
    arrival.

    {b Determinism contract.} Each wave fans the busy shards over one
    {!Hipstr_cmp.Pool.crew}, opened for the whole run: the shard
    tasks form one dynamic queue claimed by atomic fetch-and-add, so
    an idle domain takes the next whole-CMP quantum in shard index
    order. Every simulated decision lives inside one shard, results
    fold back in shard index order, and latencies are stamped after
    the wave barrier — so [-j N] and [-j 1] are bit-identical,
    exports included.

    {b Latency.} Request latency = wave-end clock − arrival, in guest
    cycles, admission queueing included (open-loop sojourn time);
    service cycles are recorded separately. *)

type config = {
  fl_shards : int;
  fl_cores : Hipstr_isa.Desc.which list;  (** per shard *)
  fl_policy : Hipstr_cmp.Cmp.policy;
  fl_quantum : int;
  fl_mode : Hipstr.System.mode;
  fl_cfg : Hipstr_psr.Config.t option;
  fl_seed : int;
  fl_fuel : int;  (** per-connection instruction budget *)
  fl_max_live : int;  (** admission cap per shard *)
  fl_migrate_every : int;
      (** live-migration rebalance period, in waves; [0] disables it.
          Every period, one runnable process moves from the
          most-loaded shard to the least-loaded one (load gap ≥ 2,
          ties by shard index, lowest pid first) by
          {!Hipstr_snapshot.Snapshot.checkpoint_process} /
          [restore_process] — the same wire image the CLI writes to
          disk. Decided in the sequential section after the wave
          barrier, so the run stays bit-identical for any [-j]. *)
}

val default : config
(** 4 shards × the paper's core pair, round-robin, quantum 2000,
    [Hipstr] mode, 8 live connections per shard, live migration
    off. *)

type req_record = {
  rr_id : int;
  rr_tenant : int;
  rr_kind : Traffic.kind;
  rr_shard : int;
  rr_arrival : float;
  rr_admitted : float;
  rr_finished : float;
  rr_latency : float;  (** [rr_finished - rr_arrival], guest cycles *)
  rr_service_cycles : float;
  rr_instructions : int;
  rr_outcome : Hipstr.System.outcome;
}

type result = {
  r_records : req_record list;  (** sorted by [rr_id] *)
  r_makespan : float;  (** clock when the last request finished *)
  r_waves : int;
  r_completed : int;
  r_killed : int;
  r_shell : int;
  r_out_of_fuel : int;
  r_live_migrations : int;  (** cross-shard checkpoint/restore moves *)
}

val run :
  ?jobs:int ->
  ?obs:Hipstr_obs.Obs.t ->
  ?timeline:Hipstr_obs.Obs.Timeline.t ->
  config ->
  Traffic.conn list ->
  result
(** Serve the whole trace to completion on one crew of
    [min jobs fl_shards] domains ([jobs] defaults to 1: serial, no
    domain is spawned), joined before [run] returns. When [obs] is
    enabled, each
    completion lands in [fleet.latency_cycles] /
    [fleet.service_cycles] / [fleet.kind.<kind>.latency_cycles] and
    the per-tenant [fleet.tenant.t<k>.*] namespaces (requests,
    outcome counters, latency/service histograms); per-shard children
    are merged back in index order, and fleet totals ([fleet.waves],
    [fleet.requests], ...) are recorded at the end.

    With [timeline], every wave additionally feeds the timeline after
    its barrier at the wave-end clock: per-wave outcome counts
    ([fleet.completed] etc. via {!Hipstr_obs.Obs.Timeline.record}),
    a delta sample of the parent context (so per-window
    [fleet.latency_cycles] percentiles fall out) and one of each busy
    shard's child in shard index order (per-window psr/machine/cache
    activity). Requires an enabled [obs] to carry the latency
    histograms; deterministic across [-j] like the rest of the
    run.

    With [fl_migrate_every > 0] each live migration also records
    [fleet.live_migrations] plus the [fleet.migration.image_bytes]
    and [fleet.migration.cost_cycles] histograms (checkpoint +
    transfer under the {!Hipstr_snapshot.Snapshot} cost model).
    @raise Invalid_argument on a non-positive shard count, admission
    cap, fuel or an empty core list. *)

val latencies : result -> float list
val latency_percentile : result -> float -> float
(** Exact percentile over the raw per-request latencies
    ({!Hipstr_util.Stats.percentile}, [q] in [0, 100]).
    @raise Invalid_argument when the run served no requests — a tail
    latency over zero observations is undefined; callers must guard
    the empty case rather than read a silent 0. *)

val throughput : result -> float
(** Completed requests per million guest cycles of fleet time. *)

val by_kind : result -> (Traffic.kind * int * int * int) list
(** Per request kind: (kind, requests, completed, killed). *)

val by_tenant : result -> (int * req_record list) list
