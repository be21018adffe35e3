(** Versioned, deterministic checkpoint/restore of full process
    images, and the cross-pool migration cost model on top of them.

    An image carries: a manifest (mode, seed, pid, start ISA, PSR
    config, fat-binary fingerprint), guest memory as a page
    delta against the pristine post-load image, the machine state
    (registers, flags, caches, predictors, RAT), the PSR VM state
    (relocation maps, memo keys, code-cache directory — translated
    bytes re-materialize on restore), the OS state and the metrics
    baseline (empty when the system's observability context is off).
    Each record is declared once ({!Hipstr_util.Wire}): one
    traversal writes it and reads it, with its field ranges. The
    parser is strict: truncated, trailing, version-skewed or
    wrong-binary images, a field outside its declared range (the
    message names the record and the field) and a config
    {!Hipstr_psr.Config.validate} refuses raise
    {!Hipstr_util.Wire.Corrupt}. A refused restore may have read part
    of the image into the system it was building; that system is
    dropped, never returned, and a refused {!load_memo} leaves its
    target to be discarded by the caller.

    Determinism contract: a checkpoint is a pure read — the system
    that took it runs on exactly as if it had not, its decode caches
    included. A run restored from the image is bit-identical —
    outputs, instruction counts, cycle floats, metrics counters and
    histograms — to the checkpointing run continuing uninterrupted.
    It starts decode-cold, which only the host statistics of
    {!Hipstr_machine.Machine.decode_cache_stats} show; no metrics
    registry carries those. The image does not depend on the
    execution engine either. Span rollups and audit history are not
    checkpointed.

    Refusal rule: an image names each live translated unit, and each
    translation-memo entry that travels, by its source address, and
    restore re-prepares them from the source bytes in the restored
    memory. Once the program has written those bytes since the unit
    was translated (a live unit: since the binary was loaded; a memo
    entry: since the entry was last known clean), they are no longer
    the bytes the translation was made from, so {!checkpoint} and
    {!checkpoint_process} refuse rather than write an image that would
    restore different code, or a memo hit where the live run
    translates. *)

type manifest = {
  mf_version : int;
  mf_workload : string;  (** advisory name recorded at checkpoint *)
  mf_mode : Hipstr.System.mode;
  mf_seed : int;
  mf_pid : int;
  mf_start_isa : Hipstr_isa.Desc.which;
  mf_cfg : Hipstr_psr.Config.t;
  mf_fingerprint : int;
  mf_instructions : int;  (** at checkpoint time *)
  mf_cycles : float;  (** at checkpoint time *)
}

val fingerprint : Hipstr_compiler.Fatbin.t -> int
(** FNV-1a over both ISAs' entry points and loaded code bytes — the
    identity restore checks an image against. Computed once, at link
    ({!Hipstr_compiler.Fatbin.fb_fingerprint}). *)

val checkpoint : ?workload:string -> Hipstr.System.t -> string
(** Serialize the full process image, changing nothing in the system.
    @raise Invalid_argument, naming the unit, when a live unit's source
    bytes were written since the binary was loaded (the refusal rule
    above). *)

val restore :
  ?obs:Hipstr_obs.Obs.t ->
  ?merge_obs:bool ->
  ?decode_cache:bool ->
  fatbin:Hipstr_compiler.Fatbin.t ->
  string ->
  Hipstr.System.t * manifest
(** Rebuild a system from an image: create it un-booted against
    [fatbin], replay the memory delta, restore machine/VM/OS state
    (re-materializing translated code), and — unless [merge_obs] is
    [false] or [obs] is off — fold the image's metrics baseline into
    the new system's obs registry so continued metrics match the
    uninterrupted run.
    [decode_cache] picks the restored system's execution engine, as
    for {!Hipstr.System.of_fatbin} (default on, the fast path); the
    image does not record the engine it was taken on, and guest
    results are bit-identical on both.
    @raise Hipstr_util.Wire.Corrupt on any malformed, truncated,
    version-skewed or wrong-binary image. *)

val manifest_of : string -> manifest
(** Parse just the header of an image (works on both system and
    process images' payload; see {!restore_process} for the latter).
    @raise Hipstr_util.Wire.Corrupt as {!restore}. *)

val checkpoint_process : Hipstr_cmp.Process.t -> string
(** A process image: its own magic, the full system image, then the
    scheduler-visible runtime slice (fuel accounting, flags). Fleet
    live migration moves processes with these, in memory.
    @raise Invalid_argument as {!checkpoint}. *)

val restore_process :
  ?obs:Hipstr_obs.Obs.t ->
  ?merge_obs:bool ->
  ?spare:Hipstr_machine.Machine.t ->
  fatbin:Hipstr_compiler.Fatbin.t ->
  string ->
  Hipstr_cmp.Process.t * manifest
(** Rebuild a {!Hipstr_cmp.Process.t} from {!checkpoint_process}
    output; core-affinity warmth is dropped (first slice on the new
    pool is a cold switch). [spare] is a retired machine to reset and
    restore onto instead of allocating one, as for
    {!Hipstr.System.of_fatbin}; the result is identical.
    @raise Hipstr_util.Wire.Corrupt as {!restore}.
    @raise Invalid_argument when [spare] was built for another mode,
    configuration or [obs]. *)

val save_memo : Hipstr.System.t -> string
(** Warm-start artifact: every VM's relocation maps, translation-memo
    keys and translation history, pinned to the binary fingerprint,
    mode and config. *)

val load_memo : Hipstr.System.t -> string -> unit
(** Load a {!save_memo} artifact into a freshly created system before
    it runs: memoized units then re-install at memo cost instead of
    re-translating.
    @raise Hipstr_util.Wire.Corrupt on fingerprint/mode/config
    mismatch or a malformed artifact. *)

val checkpoint_cycles : bytes:int -> float
(** Simulated cost of serializing an image of this size (fixed
    stop-and-drain overhead + per-byte scan). *)

val transfer_cycles : bytes:int -> float
(** Simulated interconnect cost of shipping an image of this size. *)
