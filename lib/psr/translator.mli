(** The PSR basic-block translator.

    Translates one unit — a straight-line run of source instructions
    ending at a control transfer — into relocated code for the code
    cache, applying the function's relocation map to every operand
    (Section 5.1):

    - {e addressing-mode transformation}: register operands move to
      their relocated registers or pad slots; sp-relative operands go
      through the slot coloring; when the result is not encodable in
      the ISA, the translator emulates it with scratch-register
      sequences that spill through a translator-private pad slot;
    - {e procedure-call transformation}: argument stores are
      redirected to the callee's randomized argument slots, calls
      become RAT-maintaining [Callrat] macro-ops, and return addresses
      are relocated by prologue/epilogue rewriting so that even a bare
      [ret] gadget faces pad-sized entropy;
    - {e indirect control transfers} always exit to the VM ([Trap]),
      which is both a DBT necessity and the paper's attack-detection
      point;
    - at O1+ the translator forms superblocks by inlining direct
      jumps and conditional fall-throughs, and the VM aligns units to
      I-cache lines (machine block placement).

    Any unit exit is emitted as a patchable [Trap] of fixed jump size
    so the VM can chain units in place once targets are translated.

    Unit entries need not be intended instruction boundaries: a
    translated gadget gets the same treatment, with unknown operands
    relocated through the map's keyed hash — precisely why a gadget
    "fails to work as intended" under PSR. *)

exception Wild of int
(** The address to translate lies in no known function's code. *)

type exit_stub = { es_off : int;  (** unit-relative offset of the Trap *) es_target_src : int }

type icall_site = {
  is_off : int;  (** unit-relative offset of the Trap *)
  is_src : int;  (** source address of the indirect transfer *)
  is_src_ret : int;  (** source return address (0 for indirect jumps) *)
  is_nargs : int;
  is_call : bool;
}

type unit_code = {
  u_src : int;
  u_bytes : string;
  u_size : int;
  u_stubs : exit_stub list;
  u_icalls : icall_site list;
  u_src_spans : (int * int) list;
  u_instrs : int;  (** source instructions consumed *)
  u_emitted : int;  (** instructions emitted *)
}

type prepared
(** A translated unit not yet bound to a cache address: the expensive
    scan/rewrite and layout arithmetic are done, but the bytes are not
    encoded. All instruction lengths are fixed, so a [prepared] can be
    {!layout}-ed at any base, any number of times — the VM's
    translation memo holds these across evictions. *)

val prepare :
  Config.t ->
  Hipstr_isa.Desc.t ->
  read:(int -> int) ->
  as_loaded:(Hipstr_compiler.Fatbin.func_sym -> bool) ->
  fatbin:Hipstr_compiler.Fatbin.t ->
  map_of:(Hipstr_compiler.Fatbin.func_sym -> Reloc_map.t) ->
  src:int ->
  prepared
(** Scan and rewrite the unit starting at source address [src], whose
    source bytes [read] fetches.

    Every segment of a unit lies in the function holding [src], or
    runs on past its end. When [as_loaded] holds for that function —
    its code, and the decoder's look-ahead past it, still hold the bytes
    the binary loaded — segments are scanned as index ranges of the
    binary's shared decoded code ({!Hipstr_compiler.Fatbin.decoded}),
    which is what a decode through [read] returns then. Memory is
    decoded through [read] only when [as_loaded] fails, when a segment
    starts off the decoded instruction starts (a gadget entry), and for
    the part of a segment past the function's end. The unit is the
    same either way. The VM passes the one source-validity guard as
    [as_loaded]: {!Hipstr_machine.Decode_cache.source_unwritten} over
    the function's code, since the load.

    Each domain reuses one set of working arrays across calls, so
    [prepare] must not be re-entered from [map_of] or [as_loaded].
    @raise Wild if [src] is not inside any function of the binary, or
    a segment's terminator is a VM pseudo-instruction. *)

val layout : prepared -> base:int -> unit_code
(** Encode a prepared unit for placement at cache address [base]. *)

val prepared_size : prepared -> int
(** Exact encoded size in bytes — known before allocation, so the
    cache can reserve precisely this much. *)

val prepared_spans : prepared -> (int * int) list

val translate :
  Config.t ->
  Hipstr_isa.Desc.t ->
  read:(int -> int) ->
  as_loaded:(Hipstr_compiler.Fatbin.func_sym -> bool) ->
  fatbin:Hipstr_compiler.Fatbin.t ->
  map_of:(Hipstr_compiler.Fatbin.func_sym -> Reloc_map.t) ->
  src:int ->
  base:int ->
  unit_code
(** [layout (prepare ...) ~base].
    @raise Wild if [src] is not inside any function of the binary. *)

val jmp_same_size : Hipstr_isa.Desc.t -> bool
(** Sanity invariant the VM's patching relies on: an encoded [Jmp]
    occupies exactly as many bytes as an encoded [Trap]. *)
