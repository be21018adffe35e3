(** One core's PSR virtual machine.

    Owns the code cache, the per-function relocation maps, and the
    exit-stub table for its ISA, and services the machine's traps:

    - [Trap_stub] at an exit stub: translate the target unit (direct
      control flow — never suspicious), patch the stub into a direct
      jump (unit chaining), continue;
    - [Trap_stub] at an indirect-transfer site: validate the runtime
      target, apply the callee's randomized calling convention to the
      staged arguments, maintain the RAT, continue — and report the
      event as *suspicious* iff the target had no translation (the
      paper's code-cache-miss criterion);
    - [Rat_miss]: resolve a source return address; suspicious iff
      untranslated.

    Suspicious events are returned to the caller *before* being
    resolved so the HIPStR layer can decide to migrate instead.

    Capacity handling follows {!Config.t.cc_policy}: under
    {!Code_cache.Flush} the cache flushes wholesale when full; under
    {!Code_cache.Fifo}/{!Code_cache.Clock} the allocator evicts only
    the blocks a new unit overlaps, and the VM invalidates exactly
    those blocks' stubs, RAT lines and incoming chained jumps. A
    translation memo keyed by (unit, map fingerprint) re-installs a
    previously translated unit without re-running the translator, but
    only while the unit's source bytes are unwritten since the entry
    was built. Under {!Code_cache.Flush} the memo also
    serves re-translations after a flush, as host-only state: a hit
    is charged, counted and traced exactly like the translation it
    replaces, and never travels in a snapshot or memo file. Either
    way, a source address is in the cache or it is not — the hit/miss
    outcome that classifies an indirect transfer as suspicious is
    policy-independent.

    Relocation maps survive a flush (live frames hold state at
    map-specified offsets), and re-randomization happens on process
    re-spawn by rebuilding the VM with a fresh seed — exactly the
    paper's crash/reboot story. *)

type t

type stats = {
  mutable translations : int;
  mutable source_instrs : int;
  mutable emitted_instrs : int;
  mutable traps : int;
  mutable patches : int;
  mutable rat_miss_translated : int;
  mutable icalls : int;
  mutable suspicious : int;
  mutable compulsory_misses : int;
  mutable capacity_misses : int;
  mutable evictions : int;  (** blocks displaced individually (fifo/clock) *)
  mutable memo_installs : int;  (** re-installs served from the translation memo *)
  mutable retranslate_cycles : float;
      (** cycles spent servicing capacity misses (the re-translation
          cost the memo exists to cut) *)
}

type resolution =
  | Continue  (** pc updated; resume execution *)
  | Exit of int  (** the program returned from [main] *)
  | Fault of string  (** attack/wild control flow killed the process *)

type suspicious_kind =
  | Kreturn  (** a return whose source target has no translation *)
  | Kicall of { call_src : int; src_ret : int; nargs : int; is_call : bool }

type event =
  | Benign of resolution
  | Suspicious of { target_src : int; kind : suspicious_kind; resolve : unit -> resolution }
      (** an indirect control transfer missed the code cache; the
          caller chooses: call [resolve] to continue on this ISA, or
          migrate instead *)

val create :
  Config.t ->
  seed:int ->
  Hipstr_isa.Desc.which ->
  Hipstr_compiler.Fatbin.t ->
  Hipstr_machine.Machine.t ->
  t

val enter : t -> int -> unit
(** Begin executing at a source address: translate its unit and point
    the machine's pc at the translation. *)

val on_trap : t -> Hipstr_machine.Exec.trap -> event
(** Handle a machine stop. [Exit]/[Shell]/[Fault] traps are mapped to
    resolutions directly; [Trap_stub]/[Rat_miss] run the VM logic. *)

val map_of : t -> Hipstr_compiler.Fatbin.func_sym -> Reloc_map.t
(** The function's relocation map, drawn on first use ("if it is
    being entered for the first time") and kept for the VM's life. *)

val prepare : t -> int -> Translator.prepared
(** The unit at a source address prepared against this VM's maps and
    its memory, as a translation miss prepares it: from the binary's
    shared decoded code while the function's bytes (plus the decoder's
    look-ahead window) are unwritten since this VM was created, else
    from a decode of current memory ({!Translator.prepare}'s
    [as_loaded] is that guard). Draws the maps it needs; charges and
    counts nothing.
    @raise Translator.Wild as {!Translator.prepare} does. *)

val cache : t -> Code_cache.t
val stats : t -> stats
val config : t -> Config.t

val hot_regs : t -> Hipstr_compiler.Fatbin.func_sym -> int list
(** The function's most-used allocatable registers (drives the global
    register cache at O2+), ranked by operand uses. The counts come
    from the binary's shared [im_reg_uses] while the function's bytes
    (plus the decoder's look-ahead window) are unwritten since this VM
    was created, else from a decode of current memory. The ranking is
    computed once per function and VM. *)

val pretranslate : t -> int -> bool
(** Translate a source unit without transferring control and without
    charging cycles — models the idle core translating concurrently
    when a compulsory miss translates for both ISAs (Section 3.5).
    Returns false if the address is wild. It opens no span; with a
    hostprof attached, its host allocation is one entry of the
    [pretranslate] phase ({!Hipstr_obs.Obs.hostprof_phase}). *)

val complete_call : t -> callee_src:int -> src_ret:int -> unit
(** Perform the call side effect (push / link register) with a
    *source* return address, insert the RAT mapping for it, and enter
    the callee. Used to finish an indirect call after migration. *)

val drain_new_units : t -> int list
(** Source unit addresses translated since the last drain (the HIPStR
    layer mirrors compulsory translations onto the other ISA). *)

val flush : t -> unit
(** Flush the code cache wholesale: drop every translation, stub
    registration and chain patch, clear the RAT, and charge the flush
    cost. Relocation maps and the translation memo survive. First,
    every live unit installed from a memo entry's layout keeps the
    decoded blocks of its bytes that no write has touched since its
    blit; the next install of that layout at the same base blits the
    same bytes and adopts them instead of decoding again. Host state
    only: guest results do not depend on it. *)

val rewritten_unit : t -> int option
(** The source address of a unit whose source bytes the program has
    written since its translation was made, if any: a live unit written
    since the binary was loaded, or (the lowest such address) a memo
    entry that travels in images, written since the entry was last
    known clean. No image of this VM can be restored faithfully while
    one exists: {!sync_state} re-encodes every live unit, and rebuilds
    every saved memo entry, from the restored source bytes, which are
    not the bytes the translation was made from. A pure read. *)

val sync_state : Hipstr_util.Wire.io -> t -> unit
(** Write, or overwrite from an image, the VM: rng word, a reserved 0
    word, relocation maps, memo key set (without the entries the flush
    path keeps for itself), translation history, code-cache allocator
    state, chain patches, un-drained units, counters. Translated code
    bytes do NOT travel. Reading targets a VM with the same config/ISA,
    re-encodes every live cache block at its recorded address (and
    re-applies chain patches) so the cache bytes in guest memory come
    out identical to checkpoint time. It charges no cycles and records
    no observations — the work was already accounted when it first
    happened — and requires the guest memory image (source code bytes)
    to be restored first.
    @raise Hipstr_util.Wire.Corrupt on malformed or inconsistent
    images (a non-zero reserved word, memo/map fingerprint mismatch,
    block size mismatch, a chain patch that covers no exit stub or
    jumps anywhere but to the live unit of its source). *)

val sync_meta : Hipstr_util.Wire.io -> t -> unit
(** Only the warm-start slice — rng word, the reserved word,
    relocation maps, memo keys (as in {!sync_state}), translation
    history — with no machine coupling, for persisting the translation
    memo across runs. Read into a freshly created VM (after the fat
    binary is in memory), it makes later translations of memoized
    units memo installs (under {!Code_cache.Flush}, from the memo but
    charged as translations).
    @raise Hipstr_util.Wire.Corrupt on malformed images, a non-zero
    reserved word among them. *)

val forget_memo : t -> unit
(** Drop the translation memo, keeping the translation history — the
    cold arm of a warm/cold start comparison. *)
