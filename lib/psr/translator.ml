open Hipstr_isa
open Minstr
module Fatbin = Hipstr_compiler.Fatbin

exception Wild of int

type exit_stub = { es_off : int; es_target_src : int }

type icall_site = {
  is_off : int;
  is_src : int;
  is_src_ret : int;
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
  u_instrs : int;
  u_emitted : int;
}

let jmp_same_size (desc : Desc.t) = Isa.length desc.which (Jmp 0) = Isa.length desc.which (Trap 0)

(* ------------------------------------------------------------------ *)
(* Emission state: items carry an optional symbolic reference to an
   out-of-line stub whose address is known only after layout.         *)

(* Stub references are plain ints: [no_ref] for none, the stub index
   otherwise. Items live in a pair of growable parallel arrays rather
   than a cons list — [emit] runs per emitted instruction and the
   per-item cons + tuple (plus the final reverse-and-convert) were a
   measurable slice of translation-time allocation. *)
let no_ref = -1

(* Tags of a syscall window or of an argument store for the unit's
   terminal direct call (see [compute_marks]). *)
type mark = Mnone | Mphys_dst | Margstore of int (* relocated displacement *)

(* The most body instructions one segment scan takes. *)
let max_body = 64

(* The working state of one [prepare]. It is reused: each domain keeps
   one ([scratch]), and [prepare] copies out what the unit keeps, so a
   translation allocates no emission or scan arrays of its own.

   A segment scan leaves its body, the straight-line instructions
   before the terminator, in [b_arr.(b_lo)] .. [b_arr.(b_lo + n - 1)]:
   a range of the function's shared decoded code, or of [mem_body] when
   it was decoded from memory. [t_len] is the terminator's length, 0
   when the scan stopped without one. *)
type st = {
  mutable desc : Desc.t;
  mutable it_instr : Minstr.t array; (* emitted instructions, [0, emitted) *)
  mutable it_ref : int array; (* parallel stub refs, [no_ref] if none *)
  mutable nstub : int;
  mutable stub_targets : (int * int) list; (* stub idx -> target src, reverse *)
  mutable emitted : int;
  mem_body : Minstr.t array;
  marks : mark array; (* per body instruction of the current segment *)
  mutable b_arr : Minstr.t array;
  mutable b_lo : int;
  mutable t_addr : int;
  mutable t_instr : Minstr.t;
  mutable t_len : int;
  mutable seg_end : int;
}

let scratch : st Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        desc = Isa.desc Desc.Cisc;
        it_instr = Array.make 64 Minstr.Nop;
        it_ref = Array.make 64 no_ref;
        nstub = 0;
        stub_targets = [];
        emitted = 0;
        mem_body = Array.make max_body Minstr.Nop;
        marks = Array.make max_body Mnone;
        b_arr = [||];
        b_lo = 0;
        t_addr = 0;
        t_instr = Minstr.Nop;
        t_len = 0;
        seg_end = 0;
      })

(* Inline traps for indirect transfers carry this flag in their
   operand so layout can tell them apart from ordinary exit stubs
   whose target could coincide. Addresses stay below it. *)
let icall_flag = 0x4000_0000

let ilen st i = Isa.length st.desc.which i

let emit st ?(rf = no_ref) i =
  let n = st.emitted in
  if n = Array.length st.it_instr then begin
    let cap = 2 * n in
    let instr' = Array.make cap Minstr.Nop in
    let ref' = Array.make cap no_ref in
    Array.blit st.it_instr 0 instr' 0 n;
    Array.blit st.it_ref 0 ref' 0 n;
    st.it_instr <- instr';
    st.it_ref <- ref'
  end;
  st.it_instr.(n) <- i;
  st.it_ref.(n) <- rf;
  st.emitted <- n + 1

let new_stub st target =
  let idx = st.nstub in
  st.nstub <- idx + 1;
  st.stub_targets <- (idx, target) :: st.stub_targets;
  idx

(* Temp-register discipline. Emulation sequences need registers, but
   any register — including the scratches — may carry live source
   state (the compiler keeps values in scratch registers across its
   own lowering sequences). So a temp is (a) chosen to avoid every
   register the instruction being rewritten touches, in either its
   source or relocated form, and (b) bracketed by a spill to the
   translator's private pad slots. Temp slot keys are logical (0/1/2);
   the same key returns the same register within one instruction. *)

type temps = {
  mutable t_assigned : (int * int) list; (* key -> register *)
  mutable t_saved : (int * int) list; (* register -> save slot offset *)
  t_avoid : int list;
}

let fresh_temps avoid = { t_assigned = []; t_saved = []; t_avoid = avoid }

(* Registers the instruction touches: every operand register plus its
   relocation target. Direct matches rather than a fold over
   [Minstr.operands]: this runs per source instruction, and the
   operand list plus the two capturing closures of the fold were a
   measurable slice of translation-time allocation. Only the avoid
   list itself (a membership set — order does not matter to
   [get_temp]) is allocated. *)
let avoid_add (map : Reloc_map.t) acc r =
  let acc = r :: acc in
  match Reloc_map.map_reg map r with Reloc_map.Lreg r' -> r' :: acc | Reloc_map.Lpad _ -> acc

let avoid_operand map acc (op : operand) =
  match op with
  | Reg r -> avoid_add map acc r
  | Mem { base; _ } -> avoid_add map acc base
  | Imm _ -> acc

let avoid_of_instr (map : Reloc_map.t) (i : Minstr.t) =
  match i with
  | Mov (d, s) | Binop (_, d, s) | Cmp (d, s) -> avoid_operand map (avoid_operand map [] d) s
  | Lea (d, b, _) -> avoid_add map (avoid_add map [] d) b
  | Push s | Pop s | Jmpr s | Callr s | Retrat s -> avoid_operand map [] s
  | Retr r -> avoid_add map [] r
  | Jmp _ | Jcc _ | Call _ | Ret | Syscall | Nop | Trap _ | Callrat _ -> []

let get_temp st (map : Reloc_map.t) temps key =
  match List.assoc_opt key temps.t_assigned with
  | Some reg -> reg
  | None ->
    let taken = List.map snd temps.t_assigned in
    let candidates = st.desc.scratch :: st.desc.scratch2 :: st.desc.allocatable in
    let reg =
      match
        List.find_opt (fun r -> (not (List.mem r temps.t_avoid)) && not (List.mem r taken)) candidates
      with
      | Some r -> r
      | None -> failwith "translator: no temp register available"
    in
    temps.t_assigned <- (key, reg) :: temps.t_assigned;
    let off = Reloc_map.vm_temp_off map + (4 * List.length temps.t_saved) in
    temps.t_saved <- (reg, off) :: temps.t_saved;
    emit st (Mov (Mem { base = st.desc.sp; disp = off }, Reg reg));
    reg

let release_temps st temps =
  List.iter
    (fun (reg, off) -> emit st (Mov (Reg reg, Mem { base = st.desc.sp; disp = off })))
    (List.rev temps.t_saved);
  temps.t_assigned <- [];
  temps.t_saved <- []

(* ------------------------------------------------------------------ *)
(* Operand rewriting. *)

let legal st i = Isa.encodable st.desc.which i

(* Rewrite one operand; may emit base-load instructions using temps.
   [phys] suppresses register relocation (syscall windows).
   [override] replaces sp-relative displacement mapping (argument
   stores aimed at a callee's randomized convention). *)
let xop st (map : Reloc_map.t) temps ?(phys = false) ?override (op : operand) : operand =
  let sp = st.desc.sp in
  match op with
  | Imm k -> Imm k
  | Reg r ->
    if phys || r = sp then Reg r
    else (
      match Reloc_map.map_reg map r with
      | Reloc_map.Lreg r' -> Reg r'
      | Reloc_map.Lpad off -> Mem { base = sp; disp = off })
  | Mem { base; disp } when base = sp ->
    let disp' = match override with Some d -> d | None -> Reloc_map.map_slot map disp in
    Mem { base = sp; disp = disp' }
  | Mem { base; disp } -> (
    match Reloc_map.map_reg map base with
    | Reloc_map.Lreg b' -> Mem { base = b'; disp }
    | Reloc_map.Lpad off ->
      let t = get_temp st map temps 0 in
      emit st (Mov (Reg t, Mem { base = sp; disp = off }));
      Mem { base = t; disp })

(* Emit a mov between two already-rewritten operands, legalizing
   through a temp when the shape is not encodable. *)
let emit_mov_x st map temps dst src =
  if dst = src then ()
  else
    let m = Mov (dst, src) in
    if legal st m then emit st m
    else begin
      let t = get_temp st map temps 1 in
      emit st (Mov (Reg t, src));
      emit st (Mov (dst, Reg t))
    end

(* ------------------------------------------------------------------ *)
(* Per-instruction rewriting. [marks] may tag the instruction as part
   of a syscall window or as an argument store for the unit's
   terminal direct call. *)

let rewrite_instr st (map : Reloc_map.t) mark (i : Minstr.t) =
  let temps = fresh_temps (avoid_of_instr map i) in
  (match i with
  | Nop -> emit st Nop
  | Syscall -> emit st Syscall
  | Mov (d, s) -> (
    match mark with
    | Mphys_dst ->
      (* syscall argument load: physical destination register *)
      let s' = xop st map temps s in
      emit_mov_x st map temps d s'
    | Margstore disp' ->
      let s' = xop st map temps s in
      let d' = xop st map temps ~override:disp' d in
      emit_mov_x st map temps d' s'
    | Mnone ->
      let s' = xop st map temps s in
      let d' = xop st map temps d in
      emit_mov_x st map temps d' s')
  | Lea (d, b, k) ->
    let sp = st.desc.sp in
    let target_addr_op =
      if b = sp then `Sp (Reloc_map.map_slot map k)
      else
        match Reloc_map.map_reg map b with
        | Reloc_map.Lreg b' -> `Reg (b', k)
        | Reloc_map.Lpad off ->
          let t = get_temp st map temps 0 in
          emit st (Mov (Reg t, Mem { base = sp; disp = off }));
          `Reg (t, k)
    in
    let dloc = Reloc_map.map_reg map d in
    let emit_lea dreg =
      match target_addr_op with
      | `Sp k' -> emit st (Lea (dreg, sp, k'))
      | `Reg (b', k') -> emit st (Lea (dreg, b', k'))
    in
    (match dloc with
    | Reloc_map.Lreg d' -> emit_lea d'
    | Reloc_map.Lpad off ->
      let t = get_temp st map temps 1 in
      emit_lea t;
      emit st (Mov (Mem { base = sp; disp = off }, Reg t)))
  | Binop (op, d, s) -> (
    let s' = xop st map temps s in
    let d' = xop st map temps d in
    let b' = Binop (op, d', s') in
    if legal st b' then emit st b'
    else
      match (d, d') with
      | Mem { base = b0; disp }, Mem { base = bt; disp = _ }
        when List.exists (fun (_, r) -> r = bt) temps.t_assigned && b0 <> st.desc.sp ->
        (* The destination's base pointer lives in temp 0; the
           write-back would need the base after the temps are spent,
           so compute in t0 itself and reload the base from its pad
           slot at the end. *)
        let off_b =
          match Reloc_map.map_reg map b0 with
          | Reloc_map.Lpad o -> o
          | Reloc_map.Lreg _ -> assert false
        in
        let t0 = bt in
        let t1 = get_temp st map temps 1 in
        let s_use =
          match s' with
          | (Reg _ | Imm _) when legal st (Binop (op, Reg t0, s')) -> s'
          | _ ->
            emit st (Mov (Reg t1, s'));
            Reg t1
        in
        emit st (Mov (Reg t0, d'));
        emit st (Binop (op, Reg t0, s_use));
        emit st (Mov (Reg t1, Mem { base = st.desc.sp; disp = off_b }));
        emit st (Mov (Mem { base = t1; disp }, Reg t0))
      | _ ->
        let t1 = get_temp st map temps 1 in
        emit st (Mov (Reg t1, d'));
        (match s' with
        | (Imm _ | Reg _) when legal st (Binop (op, Reg t1, s')) ->
          emit st (Binop (op, Reg t1, s'))
        | _ ->
          let t0 = get_temp st map temps 0 in
          emit st (Mov (Reg t0, s'));
          emit st (Binop (op, Reg t1, Reg t0)));
        emit st (Mov (d', Reg t1)))
  | Cmp (a, b) ->
    let a' = xop st map temps a in
    let b' = xop st map temps b in
    let c' = Cmp (a', b') in
    if legal st c' then emit st c'
    else begin
      let t1 = get_temp st map temps 1 in
      emit st (Mov (Reg t1, a'));
      if legal st (Cmp (Reg t1, b')) then emit st (Cmp (Reg t1, b'))
      else begin
        let t0 = get_temp st map temps 0 in
        emit st (Mov (Reg t0, b'));
        emit st (Cmp (Reg t1, Reg t0))
      end
    end
  | Push s ->
    let s' = xop st map temps s in
    let p' = Push s' in
    if legal st p' then emit st p'
    else begin
      let t1 = get_temp st map temps 1 in
      emit st (Mov (Reg t1, s'));
      emit st (Push (Reg t1))
    end
  | Pop d ->
    let d' = xop st map temps d in
    let p' = Pop d' in
    if legal st p' then emit st p'
    else begin
      let t1 = get_temp st map temps 1 in
      emit st (Pop (Reg t1));
      emit st (Mov (d', Reg t1))
    end
  | Jmp _ | Jcc _ | Call _ | Callr _ | Jmpr _ | Ret | Retr _ | Trap _ | Callrat _ | Retrat _ ->
    invalid_arg "rewrite_instr: control instruction");
  (* Flag subtlety: releasing temps emits only Movs, which do not
     disturb the condition codes the following source Jcc reads. *)
  release_temps st temps

(* ------------------------------------------------------------------ *)
(* Segment scanning. *)

(* Scan a straight-line segment from [pc]: body instructions up to
   [max_body], then the terminator, which is included. The scan stops
   after [max_body] body instructions or at undecodable bytes without
   one. Returns the body length; the segment is left in [st] (see
   [st]).

   [scan_mem] decodes guest memory through [read]. [scan_code] reads
   the function's shared decoded code from index [k0], which holds
   exactly what [scan_mem] would decode while the function's bytes are
   the ones the binary loaded: it stops where [scan_mem] stops, and
   hands over to it where the decoded code ends. *)
let set_term st addr i len =
  st.t_addr <- addr;
  st.t_instr <- i;
  st.t_len <- len;
  st.seg_end <- addr + len

let rec scan_mem st ~read addr n =
  if n >= max_body then begin
    st.seg_end <- addr;
    n
  end
  else
    match Isa.decode st.desc.which ~read addr with
    | None ->
      st.seg_end <- addr;
      n
    | Some (i, len) ->
      if Minstr.is_control i then begin
        set_term st addr i len;
        n
      end
      else begin
        st.mem_body.(n) <- i;
        scan_mem st ~read (addr + len) (n + 1)
      end

let rec scan_code st ~read (d : Fatbin.decoded) k0 k =
  let n = k - k0 in
  let addr = d.dc_addr.(k) in
  if n >= max_body then begin
    st.seg_end <- addr;
    n
  end
  else if k >= Array.length d.dc_instr then begin
    (* past the decoded code: the rest of the segment comes from memory *)
    Array.blit d.dc_instr k0 st.mem_body 0 n;
    st.b_arr <- st.mem_body;
    st.b_lo <- 0;
    scan_mem st ~read addr n
  end
  else
    let i = d.dc_instr.(k) in
    if Minstr.is_control i then begin
      set_term st addr i (d.dc_addr.(k + 1) - addr);
      n
    end
    else scan_code st ~read d k0 (k + 1)

let scan_segment st ~read (code : Fatbin.decoded option) pc =
  st.t_len <- 0;
  let k = match code with Some d -> Fatbin.instr_index d pc | None -> -1 in
  match code with
  | Some d when k >= 0 ->
    st.b_arr <- d.dc_instr;
    st.b_lo <- k;
    scan_code st ~read d k k
  | _ ->
    (* rewritten code, or an entry off the decoded instruction starts *)
    st.b_arr <- st.mem_body;
    st.b_lo <- 0;
    scan_mem st ~read pc 0

(* Identify syscall windows and terminal-call argument stores. The
   scans are top-level recursive functions, not local closures —
   [compute_marks] runs per segment and the only allocations it
   should make are the marks array and the [Margstore] payloads. *)

(* Syscall windows: the run of [mov (reg j), [sp+4j]] loads just
   before each syscall keeps physical destinations; the first
   following [mov _, (reg ret)] keeps a physical source. *)
let rec syscall_back sp (body : Minstr.t array) lo marks k =
  if k >= 0 then
    match body.(lo + k) with
    | Mov (Reg r, Mem { base; disp }) when base = sp && r <= 3 && disp = 4 * r ->
      marks.(k) <- Mphys_dst;
      syscall_back sp body lo marks (k - 1)
    | _ -> ()

(* Terminal direct call: the stores into the outgoing region in the
   trailing run of moves (which may interleave temp loads) are that
   callee's arguments. The scan stops at the first non-move or at a
   syscall, whose own staging must stay under the generic slot
   coloring. *)
let rec argstore_back sp out_words callee_map fpad (body : Minstr.t array) lo marks k =
  if k >= 0 then
    match marks.(k) with
    | Mphys_dst | Margstore _ -> ()
    | Mnone -> (
      match body.(lo + k) with
      | Mov (Mem { base; disp }, _) when base = sp && disp >= 0 && disp < 4 * out_words ->
        let j = disp / 4 in
        marks.(k) <- Margstore (Reloc_map.arg_off callee_map j - fpad);
        argstore_back sp out_words callee_map fpad body lo marks (k - 1)
      | Mov _ -> argstore_back sp out_words callee_map fpad body lo marks (k - 1)
      | _ -> ())

(* Marks for the [n] body instructions of the segment in [st]. *)
let compute_marks st (map_of_callee : int -> Reloc_map.t option) frame_out_words n =
  let marks = st.marks and body = st.b_arr and lo = st.b_lo in
  Array.fill marks 0 n Mnone;
  let sp = st.desc.sp in
  for idx = 0 to n - 1 do
    match body.(lo + idx) with
    | Syscall -> syscall_back sp body lo marks (idx - 1)
    | _ -> ()
  done;
  (match st.t_instr with
  | Call target when st.t_len > 0 -> (
    match map_of_callee target with
    | None -> ()
    | Some callee_map ->
      let fpad = Reloc_map.padded_frame callee_map in
      argstore_back sp frame_out_words callee_map fpad body lo marks (n - 1))
  | _ -> ());
  marks

(* The function-result register is part of the (randomized) calling
   convention boundary: values cross call/syscall boundaries in the
   *physical* result register, so the producing move keeps a physical
   destination and the consuming move a physical source. When the
   compiler elided the move (the value's home was the result register
   itself), the translator inserts a fix-up between the physical
   register and the map's relocation of it. *)

let emit_result_fixup st (map : Reloc_map.t) ~outgoing =
  let ret = st.desc.ret_reg in
  match Reloc_map.map_reg map ret with
  | Reloc_map.Lreg r' when r' = ret -> ()
  | loc ->
    let relocated : operand =
      match loc with
      | Reloc_map.Lreg r' -> Reg r'
      | Reloc_map.Lpad off -> Mem { base = st.desc.sp; disp = off }
    in
    if outgoing then emit st (Mov (Reg ret, relocated))
    else emit st (Mov (relocated, Reg ret))

(* ------------------------------------------------------------------ *)

(* The translation of a unit, scanned and laid out but not yet bound
   to a cache address. Every instruction length is fixed, so offsets,
   stub placement and total size are base-independent; only the final
   encoding needs the address. [layout] binds a [prepared] to a base —
   repeatably, which is what makes the VM's translation memo sound. *)
type prepared = {
  p_which : Desc.which;
  p_src : int;
  p_items : Minstr.t array;
  p_refs : int array; (* parallel stub refs, [no_ref] if none *)
  p_offsets : int array;
  p_stub_targets : int array;
  p_stub_offs : int array;
  p_total : int;
  p_icalls : icall_site list;
  p_spans : (int * int) list;
  p_instrs : int;
}

(* Whether a segment already started at [pc] in this unit: every
   segment records its span, so the spans are the visited set. *)
let rec visited (pc : int) = function
  | [] -> false
  | (p, _) :: rest -> p = pc || visited pc rest

let prepare (cfg : Config.t) desc ~read ~as_loaded ~fatbin ~map_of ~src =
  let st = Domain.DLS.get scratch in
  st.desc <- desc;
  st.nstub <- 0;
  st.stub_targets <- [];
  st.emitted <- 0;
  let sp = desc.sp in
  let fs0 =
    match Fatbin.func_at fatbin desc.which src with Some fs -> fs | None -> raise (Wild src)
  in
  let map0 = map_of fs0 in
  (* Every segment of the unit lies in [fs0] or runs on past its end. *)
  let code = if as_loaded fs0 then Some (Fatbin.decoded fs0 desc.which) else None in
  let spans = ref [] in
  let consumed = ref 0 in
  let inline_budget = ref (if cfg.opt_level >= 1 then cfg.superblock_budget else 0) in
  (* Record positions of inline traps: we note the item count before
     emitting so layout can recover offsets. Simpler: traps are
     emitted as items carrying their own target; icall traps are
     paired with their record by target address later. *)
  let icall_records = ref [] in
  let emit_exit_trap target = emit st (Trap target) in
  let emit_icall_trap info =
    icall_records := info :: !icall_records;
    emit st (Trap (info.is_src lor icall_flag))
  in
  (* One closure per prepare, not per segment: [compute_marks] asks
     for the callee map on call-terminated segments. *)
  let callee_map_of target =
    match Fatbin.func_at fatbin desc.which target with
    | Some cfs when (Fatbin.image cfs desc.which).im_entry = target -> Some (map_of cfs)
    | Some _ | None -> None
  in
  (* Translate one segment chain (superblocks follow direct jumps and
     conditional fall-through). The segment's body and terminator live
     in [st] until the next scan, which only the tail calls make. *)
  let first_segment = ref true in
  let rec do_segment fs map pc =
    let unit_start = !first_segment in
    first_segment := false;
    if visited pc !spans then emit_exit_trap pc
    else begin
      let im = Fatbin.image fs desc.which in
      let n = scan_segment st ~read code pc in
      let body = st.b_arr and lo = st.b_lo in
      let has_term = st.t_len > 0 and seg_end = st.seg_end in
      spans := (pc, seg_end - pc) :: !spans;
      consumed := !consumed + n + (if has_term then 1 else 0);
      let marks = compute_marks st callee_map_of fs.fs_frame.outgoing_words n in
      let fbytes = fs.fs_frame.frame_bytes in
      let fbytes' = Reloc_map.padded_frame map in
      let skip = ref 0 in
      (* Prologue rewriting when the segment starts at the entry. *)
      if pc = im.im_entry then begin
        match desc.call_pushes_ret with
        | true when n >= 1 -> (
          match body.(lo) with
          | Binop (Sub, Reg r, Imm k) when r = sp && k = fbytes - 4 ->
            emit st (Binop (Sub, Reg sp, Imm (fbytes' - 4)));
            (* relocate the hardware-pushed return address *)
            emit st (Mov (Reg desc.scratch, Mem { base = sp; disp = fbytes' - 4 }));
            emit st (Mov (Mem { base = sp; disp = Reloc_map.ret_off map }, Reg desc.scratch));
            skip := 1
          | _ -> ())
        | false when n >= 2 -> (
          match (body.(lo), body.(lo + 1)) with
          | Binop (Sub, Reg r, Imm k), Mov (Mem { base; disp }, Reg lr)
            when r = sp && k = fbytes && base = sp && disp = fbytes - 4 && Some lr = desc.lr ->
            emit st (Binop (Sub, Reg sp, Imm fbytes'));
            emit st (Mov (Mem { base = sp; disp = Reloc_map.ret_off map }, Reg lr));
            skip := 2
          | _ -> ())
        | _ -> ()
      end;
      (* Body. The CISC epilogue's [add sp, F-4] pairs with the
         terminator [ret]; the RISC epilogue is the trailing
         [ldr lr]/[add sp] pair before [retr lr]. We detect them and
         let the terminator handler emit the relocated sequence. *)
      let epi_start =
        match (has_term, st.t_instr, desc.call_pushes_ret) with
        | true, Ret, true when n >= 1 -> (
          match body.(lo + n - 1) with
          | Binop (Add, Reg r, Imm k) when r = sp && k = fbytes - 4 -> n - 1
          | _ -> n)
        | true, Retr rr, false when n >= 2 -> (
          match (body.(lo + n - 2), body.(lo + n - 1)) with
          | Mov (Reg lr, Mem { base; disp }), Binop (Add, Reg r2, Imm k2)
            when Some lr = desc.lr && lr = rr && base = sp && disp = fbytes - 4 && r2 = sp
                 && k2 = fbytes ->
            n - 2
          | _ -> n)
        | _ -> n
      in
      let epilogue_matched = epi_start < n in
      (* Result-register convention at boundaries (see
         [emit_result_fixup]): on entering a unit at a call-site
         return and after every syscall, the physical result register
         is copied to its map location; a matched epilogue copies it
         back just before returning. Source instructions in between
         are translated uniformly against the map. *)
      if unit_start && Fatbin.callsite_of_ret fatbin desc.which pc <> None then
        emit_result_fixup st map ~outgoing:false;
      for idx = !skip to epi_start - 1 do
        let i = body.(lo + idx) in
        rewrite_instr st map marks.(idx) i;
        match i with
        | Syscall -> emit_result_fixup st map ~outgoing:false
        | _ -> ()
      done;
      (* Terminator. *)
      if not has_term then
        (* budget exhausted or undecodable: exit to the VM *)
        emit_exit_trap seg_end
      else
        let taddr = st.t_addr and t = st.t_instr in
        let next_src = seg_end in
        match t with
        | Jmp target ->
          if !inline_budget > 0
             && (match Fatbin.func_at fatbin desc.which target with
                | Some fs' -> fs'.fs_name = fs.fs_name
                | None -> false)
          then begin
            inline_budget := !inline_budget - n - 1;
            do_segment fs map target
          end
          else emit_exit_trap target
        | Jcc (c, target) ->
          let stub = new_stub st target in
          emit st ~rf:stub (Jcc (c, 0));
          if !inline_budget > 0 then begin
            inline_budget := !inline_budget - n - 1;
            do_segment fs map next_src
          end
          else emit_exit_trap next_src
        | Call target ->
          let stub = new_stub st target in
          emit st ~rf:stub (Callrat { target = 0; src_ret = next_src });
          emit_exit_trap next_src
        | Callr op ->
          (* Spill the (relocated) target into the VM temp slot, then
             trap: the VM validates the target, applies the callee's
             calling convention, and continues. This is the paper's
             security-event site for indirect calls. *)
          let temps = fresh_temps (avoid_of_instr map t) in
          let op' = xop st map temps op in
          emit_mov_x st map temps (Mem { base = sp; disp = Reloc_map.vm_temp_off map + 16 }) op';
          release_temps st temps;
          let nargs =
            (* indirect-call argument stores stay under the generic
               slot coloring; count the outgoing stores in the trailing
               run of moves *)
            let k = ref (n - 1) and cnt = ref 0 in
            let continue_ = ref true in
            while !continue_ && !k >= 0 do
              (match body.(lo + !k) with
              | Mov (Mem { base; disp }, _)
                when base = sp && disp >= 0 && disp < 4 * fs.fs_frame.outgoing_words ->
                incr cnt
              | Mov _ -> ()
              | _ -> continue_ := false);
              decr k
            done;
            !cnt
          in
          emit_icall_trap { is_off = 0; is_src = taddr; is_src_ret = next_src; is_nargs = nargs; is_call = true }
        | Jmpr op ->
          let temps = fresh_temps (avoid_of_instr map t) in
          let op' = xop st map temps op in
          emit_mov_x st map temps (Mem { base = sp; disp = Reloc_map.vm_temp_off map + 16 }) op';
          release_temps st temps;
          emit_icall_trap { is_off = 0; is_src = taddr; is_src_ret = 0; is_nargs = 0; is_call = false }
        | Ret ->
          if epilogue_matched then begin
            emit_result_fixup st map ~outgoing:true;
            emit st (Mov (Reg desc.scratch, Mem { base = sp; disp = Reloc_map.ret_off map }));
            emit st (Binop (Add, Reg sp, Imm fbytes'));
            emit st (Retrat (Reg desc.scratch))
          end
          else begin
            (* a stray return (gadget): consume one word, then return
               via the relocated slot — pad-sized entropy even here *)
            emit st (Binop (Add, Reg sp, Imm 4));
            if legal st (Retrat (Mem { base = sp; disp = Reloc_map.ret_off map - 4 })) then
              emit st (Retrat (Mem { base = sp; disp = Reloc_map.ret_off map - 4 }))
            else begin
              emit st (Mov (Reg desc.scratch, Mem { base = sp; disp = Reloc_map.ret_off map - 4 }));
              emit st (Retrat (Reg desc.scratch))
            end
          end
        | Retr r ->
          if epilogue_matched then begin
            emit_result_fixup st map ~outgoing:true;
            emit st (Mov (Reg desc.scratch, Mem { base = sp; disp = Reloc_map.ret_off map }));
            emit st (Binop (Add, Reg sp, Imm fbytes'));
            emit st (Retrat (Reg desc.scratch))
          end
          else (
            match Reloc_map.map_reg map r with
            | Reloc_map.Lreg r' -> emit st (Retrat (Reg r'))
            | Reloc_map.Lpad off ->
              emit st (Mov (Reg desc.scratch, Mem { base = sp; disp = off }));
              emit st (Retrat (Reg desc.scratch)))
        | Syscall | Nop | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ ->
          assert false (* not terminators *)
        | Trap _ | Callrat _ | Retrat _ ->
          (* pseudo-instructions never appear in source sections *)
          raise (Wild taddr)
    end
  in
  do_segment fs0 map0 src;
  (* Layout: main items first, then one out-of-line Trap per stub. *)
  let items = Array.sub st.it_instr 0 st.emitted in
  let refs = Array.sub st.it_ref 0 st.emitted in
  let stub_targets =
    let a = Array.make st.nstub 0 in
    List.iter (fun (i, t) -> a.(i) <- t) st.stub_targets;
    a
  in
  let offsets = Array.make (Array.length items) 0 in
  let off = ref 0 in
  for i = 0 to Array.length items - 1 do
    offsets.(i) <- !off;
    off := !off + ilen st items.(i)
  done;
  let stub_offs = Array.make st.nstub 0 in
  let trap_len = ilen st (Trap 0) in
  for i = 0 to st.nstub - 1 do
    stub_offs.(i) <- !off;
    off := !off + trap_len
  done;
  {
    p_which = desc.which;
    p_src = src;
    p_items = items;
    p_refs = refs;
    p_offsets = offsets;
    p_stub_targets = stub_targets;
    p_stub_offs = stub_offs;
    p_total = !off;
    p_icalls = List.rev !icall_records;
    p_spans = List.rev !spans;
    p_instrs = !consumed;
  }

let prepared_size p = p.p_total
let prepared_spans p = p.p_spans

(* Encode a prepared unit at a concrete cache address. *)
let layout p ~base =
  let which = p.p_which in
  let items = p.p_items in
  let offsets = p.p_offsets in
  let stub_offs = p.p_stub_offs in
  (* One buffer for the whole unit — [encode_into] appends in place,
     where a per-instruction [encode] cost a buffer and a string
     each. *)
  let buf = Buffer.create 256 in
  let stubs = ref [] in
  let icall_out = ref [] in
  let pending_icalls = ref p.p_icalls in
  Array.iteri
    (fun i ins ->
      let at = base + offsets.(i) in
      let ins' =
        let rf = p.p_refs.(i) in
        if rf = no_ref then ins
        else
          let stub_addr = base + stub_offs.(rf) in
          match ins with
          | Jcc (c, _) -> Jcc (c, stub_addr)
          | Callrat { src_ret; _ } -> Callrat { target = stub_addr; src_ret }
          | _ -> assert false
      in
      (match ins' with
      | Trap target when target land icall_flag <> 0 -> (
        match !pending_icalls with
        | info :: rest ->
          assert (info.is_src = target lxor icall_flag);
          icall_out := { info with is_off = offsets.(i) } :: !icall_out;
          pending_icalls := rest
        | [] -> assert false)
      | Trap target -> stubs := { es_off = offsets.(i); es_target_src = target } :: !stubs
      | _ -> ());
      Isa.encode_into which buf ~at ins')
    items;
  Array.iteri
    (fun s target ->
      let at = base + stub_offs.(s) in
      stubs := { es_off = stub_offs.(s); es_target_src = target } :: !stubs;
      Isa.encode_into which buf ~at (Trap target))
    p.p_stub_targets;
  let bytes = Buffer.contents buf in
  assert (String.length bytes = p.p_total);
  {
    u_src = p.p_src;
    u_bytes = bytes;
    u_size = p.p_total;
    u_stubs = List.rev !stubs;
    u_icalls = List.rev !icall_out;
    u_src_spans = p.p_spans;
    u_instrs = p.p_instrs;
    u_emitted = Array.length items;
  }

let translate cfg desc ~read ~as_loaded ~fatbin ~map_of ~src ~base =
  layout (prepare cfg desc ~read ~as_loaded ~fatbin ~map_of ~src) ~base
