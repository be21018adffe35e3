(** Zero-dependency tracing + metrics for the HIPStR simulator.

    The paper's evaluation (§6) reports quantities — translation
    counts, code-cache hit/miss rates, migrations triggered, stack
    transformation latency — that the substrate must expose at
    runtime. This module provides:

    - {!Metrics}: named monotonic counters and log2-bucketed
      histograms, snapshottable at any time;
    - {!Span}: cycle-stamped phase spans;
    - {!Audit}: the forensic log of suspicious transfers, migration
      decisions and outcomes, and process kills.

    A context holds model facts only, each recorded once: an event
    is a counter or histogram, a span, or an audit entry, never two
    of them for the same purpose. Host state stays out: the decode
    cache's hit, miss, chain and inline-cache counts live in
    [Decode_cache.stats] alone, so a metrics snapshot (and the
    snapshot images and exports built from it) is the same whichever
    execution engine produced it.

    Discipline: an instrumented site guards all observability work
    with [if Obs.on obs then ...] so the disabled path costs a single
    load-and-branch; handles ({!Metrics.counter} etc.) are resolved
    once at component creation, never on a hot path.

    Domain safety: a context may be shared by simulations running on
    several OCaml 5 domains (the {!Hipstr_cmp.Pool} parallel driver).
    Counter increments are lock-free atomics; histogram observation,
    handle registration, spans and the audit log are mutex-guarded,
    so concurrent use never loses an update. For
    deterministic aggregation prefer one {!child} context per task,
    folded back with {!merge} in task order. *)

module Metrics : sig
  type counter
  type histogram
  type t

  val create : unit -> t

  val counter : t -> string -> counter
  (** Find-or-create by name. @raise Invalid_argument if the name is
      already registered as a histogram. *)

  val histogram : t -> string -> histogram

  val incr : ?by:int -> counter -> unit
  (** @raise Invalid_argument if [by] is negative: counters are
      monotonic. *)

  val add : counter -> int -> unit
  (** [add c n] deposits a batch of [n] events ([n = 0] is a no-op).
      The allocation-free form of [incr ~by:n], for hot paths that
      accumulate counts in plain ints and deposit at block or run
      boundaries. Exported values are unchanged by batching: deposits
      land before any export can read the registry (exports happen
      between runs, deposits at run exit).
      @raise Invalid_argument if [n] is negative. *)

  val value : counter -> int

  val observe : histogram -> float -> unit

  type histogram_summary = {
    hs_count : int;
    hs_sum : float;
    hs_min : float;
    hs_max : float;
    hs_mean : float;
    hs_buckets : int array;
        (** bucket 0 counts values < 1; bucket i counts values in
            [2^(i-1), 2^i); the last bucket is open-ended *)
  }

  val quantile : histogram_summary -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([q] in [0, 1]) of
      the observed distribution from the log2 buckets: linear
      interpolation inside the bucket where the cumulative count
      crosses rank [q * count], clamped to the exact observed
      [[min, max]] (which also bounds the open-ended last bucket).
      0 on an empty histogram.
      @raise Invalid_argument if [q] is outside [0, 1]. *)

  val p50 : histogram_summary -> float
  val p95 : histogram_summary -> float

  val p99 : histogram_summary -> float
  (** The tail-latency accessors the fleet report uses — shorthand
      for {!quantile} at 0.5 / 0.95 / 0.99. *)

  type snapshot = {
    snap_counters : (string * int) list;  (** sorted by name *)
    snap_histograms : (string * histogram_summary) list;  (** sorted by name *)
  }

  val snapshot : t -> snapshot

  val counter_value : snapshot -> string -> int
  (** 0 if absent. *)

  val histogram_summary : snapshot -> string -> histogram_summary option

  val empty_summary : histogram_summary
  (** The summary of zero observations — the identity of
      {!combine_summaries} and the result of an empty {!delta}. *)

  val count_above : histogram_summary -> float -> float
  (** Estimated number of observations strictly above a threshold:
      whole buckets above it count in full, the straddled bucket
      contributes a linearly interpolated fraction (bounds clamped to
      the observed [[min, max]]). Deterministic; exact when no bucket
      straddles the threshold. 0 on an empty histogram. *)

  val delta : base:histogram_summary -> histogram_summary -> histogram_summary
  (** [delta ~base h] is the windowed difference of two cumulative
      summaries of the same histogram ([base] taken earlier): count,
      sum and buckets subtract exactly; min/max are re-derived from
      the delta buckets' bounds clamped to [h]'s observed range — a
      deterministic estimate, since per-window extrema are not
      recoverable from cumulative state. Empty if no observations
      landed between the two. *)

  val combine_summaries : histogram_summary -> histogram_summary -> histogram_summary
  (** Combine summaries of disjoint observation sets (counts, sums
      and buckets add; min/max take the extrema). *)

  val merge : into:t -> snapshot -> unit
  (** Fold a snapshot into a live registry: counters add; histograms
      combine exactly (count, sum, min, max and buckets are all
      mergeable). Names absent from [into] are created. *)
end

(** Nestable, cycle-stamped phase spans.

    A span attributes a stretch of {e simulated} cycles — the
    deterministic clock of the machine or core it ran on, never wall
    time — to a named phase: [exec], [translate], [stack_transform],
    [migration], [context_switch_flush], [schedule].

    Nesting is implicit. Each domain keeps a stack of its open spans
    (in domain-local storage), so a [translate] span begun while an
    [exec] span is open records that exec span as its parent with no
    handle threading through the machine layers. This is sound because
    one slice of one process runs entirely on one domain: spans open
    and close in LIFO order per domain even when a CMP interleaves
    processes, and the parallel round driver gives each slice its own
    domain (or its own {!child} context).

    Completed spans accumulate in an unbounded mutex-guarded store.
    Span ids and completion order depend on domain interleaving under
    a parallel run; the exporters therefore re-sort by content
    ({!canonical}), which restores bit-for-bit determinism. *)
module Span : sig
  type span
  type t

  val create : unit -> t

  val enter : t -> name:string -> ?attrs:(string * string) list -> cycle:float -> unit -> span
  (** Open a span at simulated cycle [cycle]. The youngest open span
      of the same store on this domain becomes its parent. *)

  val exit : t -> span -> cycle:float -> unit
  (** Close at [cycle] (clamped to at least the begin stamp) and move
      the span to the completed store. *)

  val completed : t -> span list
  (** Completed spans in completion order (nondeterministic under a
      parallel run — sort with {!canonical} before consuming). *)

  val count : t -> int

  val id : span -> int
  val parent_id : span -> int option
  val name : span -> string
  val attrs : span -> (string * string) list
  val attr : span -> string -> string option
  val begin_cycle : span -> float
  val end_cycle : span -> float
  val duration : span -> float

  val canonical : span list -> span list
  (** Content-only ordering (begin, end, name, attrs — ids excluded):
      any permutation of the same multiset sorts to the same sequence,
      making parallel-run exports byte-identical to the serial run. *)

  val total : t -> name:string -> float
  (** Sum of durations of completed spans named [name], folded in
      canonical order. *)

  val merge : into:t -> t -> unit
  (** Fold a finished child store into [into], re-basing span ids but
      preserving internal parent links. *)
end

(** The forensic record the security story needs: every suspicious
    control transfer, every migration decision and its outcome, every
    process kill — unbounded, cycle-stamped, and queryable from
    tests. *)
module Audit : sig
  type kind =
    | Suspicious of { target_src : int }
    | Decision of { target_src : int; migrate : bool; forced : bool }
        (** the policy's call on a suspicious transfer: migrate (and
            was it forced) or continue in place *)
    | Migration of {
        to_isa : string;
        forced : bool;
        frames : int;
        words : int;
        cost_cycles : float;
        outcome : string;  (** ["resumed"] or ["killed"] *)
      }
    | Fault of { reason : string }
    | Sched_migrate of { core : int; security : bool }
        (** the CMP scheduler moved a process to [core]; [security]
            distinguishes defense-driven from load-balancing moves *)

  type entry = { au_seq : int; au_cycle : float; au_isa : string; au_pid : int; au_kind : kind }

  type t

  val create : unit -> t
  val record : t -> cycle:float -> isa:string -> pid:int -> kind -> entry
  val entries : t -> entry list
  val length : t -> int
  val count : t -> (entry -> bool) -> int
  val kind_label : kind -> string
  val merge : into:t -> t -> unit
end

(** Host-side GC/allocation profiling — the substrate for ROADMAP
    item 2 (allocation-free hot loop). Everything here measures the
    {e host} OCaml process, not the simulation: minor-heap words
    allocated while each phase span was the youngest open span on its
    domain (self words, children excluded — the same self-time
    discipline the folded exporter uses for cycles), plus
    [Gc.quick_stat] deltas around a whole run, from which
    minor-words-per-retired-instruction falls out.

    Host allocation varies with the OCaml version, inlining and
    domain interleaving, so Hostprof output is {e non-deterministic}:
    exporters only include it on request, in a clearly partitioned
    section, and it is excluded from the [-j 1]/[-j N] byte-identity
    contract (which the deterministic timeline and metrics still
    satisfy).

    Attach with {!set_hostprof} before the spans of interest open;
    {!child} contexts share their parent's hostprof, so per-phase
    words from a parallel run fold into one table. *)
module Hostprof : sig
  type t

  type run_delta = {
    hd_minor_words : float;
    hd_promoted_words : float;
    hd_major_words : float;
    hd_minor_collections : int;
    hd_major_collections : int;
    hd_instructions : int;  (** retired guest instructions, caller-supplied *)
  }

  val create : unit -> t

  val note : t -> phase:string -> words:float -> unit
  (** Fold one completed span's self words into the phase table
      (called by {!exit_span}; exposed for tests). *)

  val phases : t -> (string * int * float) list
  (** Per-phase [(name, spans, minor_words)], sorted by name; a
      {!hostprof_phase} bracket counts as one span of its phase. *)

  val start_run : t -> unit
  (** Capture a [Gc.quick_stat] baseline. *)

  val stop_run : t -> instructions:int -> unit
  (** Close the run delta against the {!start_run} baseline (no-op
      without one) and record the retired-instruction count. *)

  val run : t -> run_delta option

  val minor_words_per_instr : t -> float option
  (** [hd_minor_words / hd_instructions]; [None] before {!stop_run}
      or when no instructions retired. *)
end

type t

val create : ?on:bool -> unit -> t
(** A fresh observability context: its own metrics registry, span
    store and audit log. [on] defaults to true. *)

val disabled : t
(** A shared always-off context — the zero-overhead default for
    components created outside a [System]. Do not enable it. *)

val global : t
(** The shared ambient context: components default to it, so metrics
    from every system in the process aggregate here unless an explicit
    context is supplied. *)

val on : t -> bool
val metrics : t -> Metrics.t
val spans : t -> Span.t
val audit : t -> Audit.t
val snapshot : t -> Metrics.snapshot

val enter_span : t -> name:string -> ?attrs:(string * string) list -> cycle:float -> unit -> Span.span option
(** [None] when the context is disabled — span helpers carry their
    own guard, so instrumented sites need no [if on obs] wrapper. *)

val exit_span : t -> Span.span option -> cycle:float -> unit
(** No-op on [None]. On a live handle, closes the span. *)

val audit_emit : t -> cycle:float -> isa:string -> pid:int -> Audit.kind -> unit
(** Append to the audit log when the context is enabled (self-guarded
    like the span helpers). *)

val set_hostprof : t -> Hostprof.t -> unit
(** Attach a host-allocation profiler: from now on the span helpers
    bracket the per-domain span stack with [Gc.minor_words] readings
    and fold each completed span's self words into the profiler. *)

val hostprof : t -> Hostprof.t option

val hostprof_phase : t -> phase:string -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [hostprof_phase t ~phase f a b] is [f a b]. With a hostprof
    attached to an enabled context, the minor words [f] allocates are
    noted as one entry of [phase] and kept out of the youngest open
    span's self words, as a child span's would be. It opens no span,
    so traces, metrics and span ids are those of a direct call, and
    [f] must open none either. Its own bookkeeping allocates nothing
    once [phase] has an entry. Without a hostprof it is one match.
    [phase] must not be a span name. *)

val child : t -> t
(** A fresh context inheriting [on] and the hostprof (shared, not
    copied) of [t]: the per-task context {!Hipstr_cmp.Pool} hands
    each unit of work so results are independent of domain
    scheduling. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src]'s counters and histograms into
    [into] (exactly — see {!Metrics.merge}) and appends [src]'s spans
    (ids re-based) and audit entries. Merging the per-task contexts
    of a parallel run in task order yields byte-identical totals to
    the serial run. *)

(** Time-resolved telemetry: windowed delta snapshots keyed to the
    deterministic guest/fleet clock.

    A timeline divides the clock into fixed-width windows and folds
    {e deltas} into the window containing each sample's stamp. Two
    feeds: {!Timeline.sample} diffs a source's cumulative
    {!Metrics.snapshot} against the last snapshot seen for that
    source key (per-window counter increments and histogram deltas
    fall out — tail percentiles per window via {!Metrics.quantile});
    {!Timeline.record} adds caller-computed per-window counts
    directly.

    {b Determinism contract.} Drivers feed a timeline from the
    sequential section after their barrier (Fleet's wave loop after
    the shard fan-out, [Cmp.step]'s accounting stage) in a fixed
    source order at deterministic clock stamps — the same
    fold-after-barrier discipline {!merge} relies on — so the
    timeline and every export of it are byte-identical across
    [-j 1] / [-j N]. Attribution granularity is the sampling
    interval: a wave straddling a window boundary lands
    whole in the window containing its end stamp. *)
module Timeline : sig
  type window = {
    tw_index : int;
    tw_counters : (string * int) list;  (** sorted by name; positive deltas only *)
    tw_histograms : (string * Metrics.histogram_summary) list;
        (** sorted by name; non-empty deltas only *)
  }

  type t

  val create : window:float -> unit -> t
  (** Fixed window width in guest cycles.
      @raise Invalid_argument unless positive and finite. *)

  val window_cycles : t -> float

  val index_of : t -> float -> int
  (** The window index a clock stamp falls in (clamped at 0). *)

  val sample : t -> key:string -> clock:float -> Metrics.snapshot -> unit
  (** Fold the delta between [snap] and the last snapshot seen for
      [key] into the window containing [clock], and remember [snap]
      as [key]'s new baseline. The first sample for a key charges its
      whole cumulative state to that window. *)

  val record : t -> clock:float -> counters:(string * int) list -> unit
  (** Add caller-computed counts to the window containing [clock]
      (non-positive values are dropped). *)

  val windows : t -> window list
  (** All recorded windows, sorted by index, contents sorted by name
      — the deterministic object the exporters serialize. Windows no
      sample ever touched are absent. *)

  val window_count : t -> int

  val span : t -> (int * int) option
  (** Smallest and largest recorded window index. *)

  val counter_value : window -> string -> int
  (** 0 if absent. *)

  val histogram : window -> string -> Metrics.histogram_summary option

  val merge : into:t -> t -> unit
  (** Fold [src]'s recorded windows into [into] (counters add,
      histogram deltas combine). Per-source baselines do not travel:
      merge folds finished sub-timelines, it does not resume
      sampling. @raise Invalid_argument if window widths differ. *)
end

(** Service-level-objective tracking over a {!Timeline}: a latency
    target plus an error budget (fraction of requests allowed over
    target), evaluated per window — burn rate, cumulative budget
    remaining, time-to-exhaustion. Violations are estimated from the
    windowed histogram deltas with {!Metrics.count_above}, so the
    report inherits the timeline's determinism. *)
module Slo : sig
  type objective = private { slo_target : float; slo_budget : float }

  val objective : target:float -> budget:float -> objective
  (** @raise Invalid_argument unless [target > 0] and [budget] is a
      fraction in (0, 1). *)

  type window_report = {
    sw_index : int;
    sw_requests : int;
    sw_violations : float;  (** estimated requests over target this window *)
    sw_burn : float;
        (** [(violations/requests)/budget] — 1.0 burns exactly at
            budget, 0 on an empty window *)
    sw_cum_requests : int;
    sw_cum_violations : float;
    sw_budget_remaining : float;  (** [budget*cum_requests - cum_violations] *)
    sw_exhausted : bool;
    sw_tte_windows : float option;
        (** windows until exhaustion extrapolating this window's net
            burn; [None] when not net-burning or already exhausted *)
  }

  val evaluate : objective -> latency:string -> Timeline.t -> window_report list
  (** One report per recorded window, in index order, reading the
      histogram named [latency] (e.g. ["fleet.latency_cycles"]).
      Windows without it count zero requests. *)
end

(** Deterministic serializers over a context's metrics, spans and
    audit log. Every export re-sorts its inputs by content before
    writing, so a parallel run (whose span/audit insertion order
    depends on domain scheduling) serializes to exactly the bytes of
    the serial run — the property the exporter-determinism tests
    check by comparing files.

    Formats:
    - {!trace_json}: Chrome [trace_event] JSON, loadable in Perfetto
      or [chrome://tracing]. One track per CMP core ([pid] 0, [tid] =
      core id) carrying the per-quantum [schedule] spans; one track
      per simulated process ([pid] = 1 + process pid) carrying
      exec/translate/migration spans; audit entries appear as instant
      events. Timestamps are simulated cycles.
    - {!folded}: folded-stack lines ([phase;subphase;leaf cycles],
      self time only), ready for flamegraph.pl / speedscope; translate
      spans grow a leaf frame named after the translated function.
    - {!metrics_json} / {!metrics_prom}: full metrics dump as pretty
      JSON (four sections: [counters], [histograms], the [spans]
      roll-up and the [audit] counts by kind) or Prometheus text
      exposition.
    - {!audit_jsonl}: one canonically-ordered JSON object per audit
      entry. *)
module Export : sig
  val trace_json : ?timeline:Timeline.t -> t -> string
  (** With [timeline], per-window series additionally appear as
      Perfetto counter ("C") tracks — counters chart their per-window
      delta, histograms their per-window p99; the per-tenant
      namespaces are excluded to bound track cardinality. *)

  val folded : t -> string
  val metrics_json : t -> string
  val metrics_prom : t -> string
  val audit_jsonl : t -> string

  val span_rollup : t -> (string * int * float) list
  (** Per-phase [(name, count, total_cycles)], sorted by name — the
      reconciliation hook the tests and [print_obs] use. *)

  val timeline_json :
    ?slo:Slo.objective * Slo.window_report list ->
    ?hostprof:Hostprof.t ->
    Timeline.t ->
    string
  (** Schema [hipstr-timeline/1]: window width, the recorded windows
      (counter deltas + histogram deltas with interpolated
      p50/p95/p99), an optional [slo] section, and an optional
      [hostprof] section. Windows and slo are deterministic; hostprof
      is marked non-deterministic in-band and must not be requested
      on runs whose exports are diffed for byte identity. *)

  val timeline_csv : Timeline.t -> string
  (** Long-format CSV of the deterministic windows: one row per
      (window, series, stat) — counters as stat [delta], histograms
      as [count]/[sum]/[p50]/[p95]/[p99]. *)

  val hostprof_json : Hostprof.t -> string
  (** The hostprof section alone, as pretty JSON (non-deterministic). *)
end
