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
   translation allocates no emission or scan arrays of its own, and its
   per-instruction rewriting allocates nothing but the instructions it
   emits.

   A segment scan leaves its body, the straight-line instructions
   before the terminator, in [b_arr.(b_lo)] .. [b_arr.(b_lo + n - 1)]:
   a range of the function's shared decoded code, or of [mem_body] when
   it was decoded from memory. [t_len] is the terminator's length, 0
   when the scan stopped without one.

   The temps of the instruction being rewritten (see [get_temp]) are
   register masks and two small arrays: [t_key.(k)] is the register of
   temp key [k] ([-1] until assigned), and [t_saved.(i)] the [i]th
   register assigned, spilled to the [i]th word of the map's VM temp
   slot. *)
type st = {
  mutable desc : Desc.t;
  mutable it_instr : Minstr.t array; (* emitted instructions, [0, emitted) *)
  mutable it_ref : int array; (* parallel stub refs, [no_ref] if none *)
  mutable nstub : int;
  mutable stub_tgt : int array; (* stub idx -> target src, [0, nstub) *)
  mutable emitted : int;
  mem_body : Minstr.t array;
  marks : mark array; (* per body instruction of the current segment *)
  mutable b_arr : Minstr.t array;
  mutable b_lo : int;
  mutable t_addr : int;
  mutable t_instr : Minstr.t;
  mutable t_len : int;
  mutable seg_end : int;
  mutable t_avoid : int; (* registers the instruction touches *)
  mutable t_taken : int; (* registers assigned as temps *)
  t_key : int array;
  t_saved : int array;
  mutable t_nsaved : int;
  (* the unit so far: its segments' spans (the visited set, newest
     first), source instructions consumed, superblock budget left and
     indirect-transfer sites (newest first) *)
  mutable spans : (int * int) list;
  mutable consumed : int;
  mutable budget : int;
  mutable icalls : icall_site list;
}

(* Temp keys are 0, 1 and 2. *)
let temp_keys = 3

let scratch : st Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        desc = Isa.desc Desc.Cisc;
        it_instr = Array.make 64 Minstr.Nop;
        it_ref = Array.make 64 no_ref;
        nstub = 0;
        stub_tgt = Array.make 16 0;
        emitted = 0;
        mem_body = Array.make max_body Minstr.Nop;
        marks = Array.make max_body Mnone;
        b_arr = [||];
        b_lo = 0;
        t_addr = 0;
        t_instr = Minstr.Nop;
        t_len = 0;
        seg_end = 0;
        t_avoid = 0;
        t_taken = 0;
        t_key = Array.make temp_keys (-1);
        t_saved = Array.make temp_keys 0;
        t_nsaved = 0;
        spans = [];
        consumed = 0;
        budget = 0;
        icalls = [];
      })

(* Inline traps for indirect transfers carry this flag in their
   operand so layout can tell them apart from ordinary exit stubs
   whose target could coincide. Addresses stay below it. *)
let icall_flag = 0x4000_0000

let ilen st i = Isa.length st.desc.which i

(* Emit an instruction referring to stub [rf] ([no_ref] for none). *)
let emit_ref st rf i =
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

let emit st i = emit_ref st no_ref i

let new_stub st target =
  let idx = st.nstub in
  if idx = Array.length st.stub_tgt then begin
    let tgt' = Array.make (2 * idx) 0 in
    Array.blit st.stub_tgt 0 tgt' 0 idx;
    st.stub_tgt <- tgt'
  end;
  st.stub_tgt.(idx) <- target;
  st.nstub <- idx + 1;
  idx

(* One shared [Reg r] per register: rewriting allocates no operand for
   a register it only renames. *)
let reg_ops = Array.init 16 (fun r -> Reg r)
let reg r = if r >= 0 && r < 16 then reg_ops.(r) else Reg r

(* Temp-register discipline. Emulation sequences need registers, but
   any register — including the scratches — may carry live source
   state (the compiler keeps values in scratch registers across its
   own lowering sequences). So a temp is (a) chosen to avoid every
   register the instruction being rewritten touches, in either its
   source or relocated form, and (b) bracketed by a spill to the
   translator's private pad slots. Temp slot keys are logical (0/1/2);
   the same key returns the same register within one instruction. *)

(* Registers the instruction touches, as a mask: every operand
   register plus its relocation target. *)
let avoid_add (map : Reloc_map.t) acc r =
  let acc = acc lor (1 lsl r) in
  match Reloc_map.map_reg map r with
  | Reloc_map.Lreg r' -> acc lor (1 lsl r')
  | Reloc_map.Lpad _ -> acc

let avoid_operand map acc (op : operand) =
  match op with
  | Reg r -> avoid_add map acc r
  | Mem { base; _ } -> avoid_add map acc base
  | Imm _ -> acc

let avoid_of_instr (map : Reloc_map.t) (i : Minstr.t) =
  match i with
  | Mov (d, s) | Binop (_, d, s) | Cmp (d, s) -> avoid_operand map (avoid_operand map 0 d) s
  | Lea (d, b, _) -> avoid_add map (avoid_add map 0 d) b
  | Push s | Pop s | Jmpr s | Callr s | Retrat s -> avoid_operand map 0 s
  | Retr r -> avoid_add map 0 r
  | Jmp _ | Jcc _ | Call _ | Ret | Syscall | Nop | Trap _ | Callrat _ -> 0

(* Start the temps of one instruction. *)
let fresh_temps st avoid =
  st.t_avoid <- avoid;
  st.t_taken <- 0;
  st.t_nsaved <- 0;
  for k = 0 to temp_keys - 1 do
    st.t_key.(k) <- -1
  done

let temp_free st r = (st.t_avoid lor st.t_taken) land (1 lsl r) = 0

let rec free_allocatable st = function
  | r :: rest -> if temp_free st r then r else free_allocatable st rest
  | [] -> failwith "translator: no temp register available"

(* Candidates in order: the scratch, the second scratch, then the
   allocatable registers. *)
let get_temp st (map : Reloc_map.t) key =
  let assigned = st.t_key.(key) in
  if assigned >= 0 then assigned
  else begin
    let d = st.desc in
    let r =
      if temp_free st d.scratch then d.scratch
      else if temp_free st d.scratch2 then d.scratch2
      else free_allocatable st d.allocatable
    in
    let i = st.t_nsaved in
    st.t_key.(key) <- r;
    st.t_taken <- st.t_taken lor (1 lsl r);
    st.t_saved.(i) <- r;
    st.t_nsaved <- i + 1;
    emit st (Mov (Mem { base = d.sp; disp = Reloc_map.vm_temp_off map + (4 * i) }, reg r));
    r
  end

(* Restore every temp, in the order they were assigned. *)
let release_temps st (map : Reloc_map.t) =
  for i = 0 to st.t_nsaved - 1 do
    let slot = Mem { base = st.desc.sp; disp = Reloc_map.vm_temp_off map + (4 * i) } in
    emit st (Mov (reg st.t_saved.(i), slot))
  done

(* ------------------------------------------------------------------ *)
(* Operand rewriting. *)

let legal st i = Isa.encodable st.desc.which i

let operand_equal (a : operand) (b : operand) =
  match (a, b) with
  | Reg x, Reg y -> x = y
  | Imm x, Imm y -> x = y
  | Mem { base = b1; disp = d1 }, Mem { base = b2; disp = d2 } -> b1 = b2 && d1 = d2
  | (Reg _ | Imm _ | Mem _), _ -> false

(* Rewrite one operand; may emit base-load instructions using temps. *)
let xop st (map : Reloc_map.t) (op : operand) : operand =
  let sp = st.desc.sp in
  match op with
  | Imm _ -> op
  | Reg r ->
    if r = sp then op
    else (
      match Reloc_map.map_reg map r with
      | Reloc_map.Lreg r' -> reg r'
      | Reloc_map.Lpad off -> Mem { base = sp; disp = off })
  | Mem { base; disp } when base = sp -> Mem { base = sp; disp = Reloc_map.map_slot map disp }
  | Mem { base; disp } -> (
    match Reloc_map.map_reg map base with
    | Reloc_map.Lreg b' -> Mem { base = b'; disp }
    | Reloc_map.Lpad off ->
      let t = get_temp st map 0 in
      emit st (Mov (reg t, Mem { base = sp; disp = off }));
      Mem { base = t; disp })

(* Emit a mov between two already-rewritten operands, legalizing
   through a temp when the shape is not encodable. *)
let emit_mov_x st map dst src =
  if operand_equal dst src then ()
  else
    let m = Mov (dst, src) in
    if legal st m then emit st m
    else begin
      let t = get_temp st map 1 in
      emit st (Mov (reg t, src));
      emit st (Mov (dst, reg t))
    end

(* ------------------------------------------------------------------ *)
(* Per-instruction rewriting. [marks] may tag the instruction as part
   of a syscall window or as an argument store for the unit's
   terminal direct call. *)

let rewrite_instr st (map : Reloc_map.t) mark (i : Minstr.t) =
  fresh_temps st (avoid_of_instr map i);
  (match i with
  | Nop -> emit st Nop
  | Syscall -> emit st Syscall
  | Mov (d, s) -> (
    match mark with
    | Mphys_dst ->
      (* syscall argument load: physical destination register *)
      let s' = xop st map s in
      emit_mov_x st map d s'
    | Margstore disp' ->
      (* an argument store, aimed at the callee's randomized slot *)
      let s' = xop st map s in
      let d' =
        match d with
        | Mem { base; _ } when base = st.desc.sp -> Mem { base; disp = disp' }
        | _ -> xop st map d
      in
      emit_mov_x st map d' s'
    | Mnone ->
      let s' = xop st map s in
      let d' = xop st map d in
      emit_mov_x st map d' s')
  | Lea (d, b, k) ->
    let sp = st.desc.sp in
    let lb =
      if b = sp then sp
      else
        match Reloc_map.map_reg map b with
        | Reloc_map.Lreg b' -> b'
        | Reloc_map.Lpad off ->
          let t = get_temp st map 0 in
          emit st (Mov (reg t, Mem { base = sp; disp = off }));
          t
    in
    let lk = if b = sp then Reloc_map.map_slot map k else k in
    (match Reloc_map.map_reg map d with
    | Reloc_map.Lreg d' -> emit st (Lea (d', lb, lk))
    | Reloc_map.Lpad off ->
      let t = get_temp st map 1 in
      emit st (Lea (t, lb, lk));
      emit st (Mov (Mem { base = sp; disp = off }, reg t)))
  | Binop (op, d, s) -> (
    let s' = xop st map s in
    let d' = xop st map d in
    let b' = Binop (op, d', s') in
    if legal st b' then emit st b'
    else
      match (d, d') with
      | Mem { base = b0; disp }, Mem { base = bt; disp = _ }
        when st.t_taken land (1 lsl bt) <> 0 && b0 <> st.desc.sp ->
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
        let t1 = get_temp st map 1 in
        let s_use =
          match s' with
          | (Reg _ | Imm _) when legal st (Binop (op, reg t0, s')) -> s'
          | _ ->
            emit st (Mov (reg t1, s'));
            reg t1
        in
        emit st (Mov (reg t0, d'));
        emit st (Binop (op, reg t0, s_use));
        emit st (Mov (reg t1, Mem { base = st.desc.sp; disp = off_b }));
        emit st (Mov (Mem { base = t1; disp }, reg t0))
      | _ ->
        let t1 = get_temp st map 1 in
        emit st (Mov (reg t1, d'));
        (match s' with
        | (Imm _ | Reg _) when legal st (Binop (op, reg t1, s')) -> emit st (Binop (op, reg t1, s'))
        | _ ->
          let t0 = get_temp st map 0 in
          emit st (Mov (reg t0, s'));
          emit st (Binop (op, reg t1, reg t0)));
        emit st (Mov (d', reg t1)))
  | Cmp (a, b) ->
    let a' = xop st map a in
    let b' = xop st map b in
    let c' = Cmp (a', b') in
    if legal st c' then emit st c'
    else begin
      let t1 = get_temp st map 1 in
      emit st (Mov (reg t1, a'));
      if legal st (Cmp (reg t1, b')) then emit st (Cmp (reg t1, b'))
      else begin
        let t0 = get_temp st map 0 in
        emit st (Mov (reg t0, b'));
        emit st (Cmp (reg t1, reg t0))
      end
    end
  | Push s ->
    let s' = xop st map s in
    let p' = Push s' in
    if legal st p' then emit st p'
    else begin
      let t1 = get_temp st map 1 in
      emit st (Mov (reg t1, s'));
      emit st (Push (reg t1))
    end
  | Pop d ->
    let d' = xop st map d in
    let p' = Pop d' in
    if legal st p' then emit st p'
    else begin
      let t1 = get_temp st map 1 in
      emit st (Pop (reg t1));
      emit st (Mov (d', reg t1))
    end
  | Jmp _ | Jcc _ | Call _ | Callr _ | Jmpr _ | Ret | Retr _ | Trap _ | Callrat _ | Retrat _ ->
    invalid_arg "rewrite_instr: control instruction");
  (* Flag subtlety: releasing temps emits only Movs, which do not
     disturb the condition codes the following source Jcc reads. *)
  release_temps st map

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
   should make are the [Margstore] payloads. *)

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

(* Marks for the [n] body instructions of the segment in [st]. A
   terminal direct call to a function's entry aims its argument stores
   at that callee's map. *)
let compute_marks st ~fatbin ~map_of frame_out_words n =
  let marks = st.marks and body = st.b_arr and lo = st.b_lo in
  for idx = 0 to n - 1 do
    marks.(idx) <- Mnone
  done;
  let sp = st.desc.sp in
  for idx = 0 to n - 1 do
    match body.(lo + idx) with
    | Syscall -> syscall_back sp body lo marks (idx - 1)
    | _ -> ()
  done;
  (match st.t_instr with
  | Call target when st.t_len > 0 -> (
    let which = st.desc.which in
    match Fatbin.func_at fatbin which target with
    | Some cfs when (Fatbin.image cfs which).im_entry = target ->
      let callee_map = map_of cfs in
      let fpad = Reloc_map.padded_frame callee_map in
      argstore_back sp frame_out_words callee_map fpad body lo marks (n - 1)
    | Some _ | None -> ())
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
   to a cache address. Every instruction length is fixed, so the items'
   size, stub placement and total size are base-independent; only the
   final encoding needs the address. [layout] binds a [prepared] to a
   base — repeatably, which is what makes the VM's translation memo
   sound. The items take [p_body] bytes, and the stubs follow them, one
   Trap each. *)
type prepared = {
  p_which : Desc.which;
  p_src : int;
  p_items : Minstr.t array;
  p_refs : int array; (* parallel stub refs, [no_ref] if none *)
  p_body : int;
  p_stub_targets : int array;
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

let emit_exit_trap st target = emit st (Trap target)

(* Layout pairs each flagged Trap with its record by position. *)
let emit_icall_trap st info =
  st.icalls <- info :: st.icalls;
  emit st (Trap (info.is_src lor icall_flag))

let is_lr (desc : Desc.t) r = match desc.lr with Some lr -> lr = r | None -> false

(* Indirect-call argument stores stay under the generic slot coloring:
   count the outgoing stores in the segment's trailing run of moves. *)
let rec count_outgoing sp out_words (body : Minstr.t array) lo k cnt =
  if k < 0 then cnt
  else
    match body.(lo + k) with
    | Mov (Mem { base; disp }, _) when base = sp && disp >= 0 && disp < 4 * out_words ->
      count_outgoing sp out_words body lo (k - 1) (cnt + 1)
    | Mov _ -> count_outgoing sp out_words body lo (k - 1) cnt
    | _ -> cnt

(* Translate one segment chain (superblocks follow direct jumps and
   conditional fall-through) of function [fs] under its [map]. The
   segment's body and terminator live in [st] until the next scan,
   which only the tail calls make. [unit_start] holds for the unit's
   first segment only. *)
let rec do_segment st ~read ~code ~fatbin ~map_of ~unit_start (fs : Fatbin.func_sym) map pc =
  let desc = st.desc in
  let sp = desc.sp in
  if visited pc st.spans then emit_exit_trap st pc
  else begin
    let im = Fatbin.image fs desc.which in
    let n = scan_segment st ~read code pc in
    let body = st.b_arr and lo = st.b_lo in
    let has_term = st.t_len > 0 and seg_end = st.seg_end in
    st.spans <- (pc, seg_end - pc) :: st.spans;
    st.consumed <- st.consumed + n + (if has_term then 1 else 0);
    let marks = compute_marks st ~fatbin ~map_of fs.fs_frame.outgoing_words n in
    let fbytes = fs.fs_frame.frame_bytes in
    let fbytes' = Reloc_map.padded_frame map in
    (* Prologue rewriting when the segment starts at the entry. *)
    let skip =
      if pc <> im.im_entry then 0
      else
        match desc.call_pushes_ret with
        | true when n >= 1 -> (
          match body.(lo) with
          | Binop (Sub, Reg r, Imm k) when r = sp && k = fbytes - 4 ->
            emit st (Binop (Sub, reg sp, Imm (fbytes' - 4)));
            (* relocate the hardware-pushed return address *)
            emit st (Mov (reg desc.scratch, Mem { base = sp; disp = fbytes' - 4 }));
            emit st (Mov (Mem { base = sp; disp = Reloc_map.ret_off map }, reg desc.scratch));
            1
          | _ -> 0)
        | false when n >= 2 -> (
          match (body.(lo), body.(lo + 1)) with
          | Binop (Sub, Reg r, Imm k), Mov (Mem { base; disp }, Reg lr)
            when r = sp && k = fbytes && base = sp && disp = fbytes - 4 && is_lr desc lr ->
            emit st (Binop (Sub, reg sp, Imm fbytes'));
            emit st (Mov (Mem { base = sp; disp = Reloc_map.ret_off map }, reg lr));
            2
          | _ -> 0)
        | _ -> 0
    in
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
          when is_lr desc lr && lr = rr && base = sp && disp = fbytes - 4 && r2 = sp
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
    if unit_start then begin
      match Fatbin.callsite_of_ret fatbin desc.which pc with
      | Some _ -> emit_result_fixup st map ~outgoing:false
      | None -> ()
    end;
    for idx = skip to epi_start - 1 do
      let i = body.(lo + idx) in
      rewrite_instr st map marks.(idx) i;
      match i with
      | Syscall -> emit_result_fixup st map ~outgoing:false
      | _ -> ()
    done;
    (* Terminator. *)
    if not has_term then
      (* budget exhausted or undecodable: exit to the VM *)
      emit_exit_trap st seg_end
    else
      let taddr = st.t_addr and t = st.t_instr in
      let next_src = seg_end in
      match t with
      | Jmp target ->
        if st.budget > 0
           && (match Fatbin.func_at fatbin desc.which target with
              | Some fs' -> fs' == fs
              | None -> false)
        then begin
          st.budget <- st.budget - n - 1;
          do_segment st ~read ~code ~fatbin ~map_of ~unit_start:false fs map target
        end
        else emit_exit_trap st target
      | Jcc (c, target) ->
        let stub = new_stub st target in
        emit_ref st stub (Jcc (c, 0));
        if st.budget > 0 then begin
          st.budget <- st.budget - n - 1;
          do_segment st ~read ~code ~fatbin ~map_of ~unit_start:false fs map next_src
        end
        else emit_exit_trap st next_src
      | Call target ->
        let stub = new_stub st target in
        emit_ref st stub (Callrat { target = 0; src_ret = next_src });
        emit_exit_trap st next_src
      | Callr op ->
        (* Spill the (relocated) target into the VM temp slot, then
           trap: the VM validates the target, applies the callee's
           calling convention, and continues. This is the paper's
           security-event site for indirect calls. *)
        fresh_temps st (avoid_of_instr map t);
        let op' = xop st map op in
        emit_mov_x st map (Mem { base = sp; disp = Reloc_map.vm_temp_off map + 16 }) op';
        release_temps st map;
        let nargs = count_outgoing sp fs.fs_frame.outgoing_words body lo (n - 1) 0 in
        emit_icall_trap st
          { is_off = 0; is_src = taddr; is_src_ret = next_src; is_nargs = nargs; is_call = true }
      | Jmpr op ->
        fresh_temps st (avoid_of_instr map t);
        let op' = xop st map op in
        emit_mov_x st map (Mem { base = sp; disp = Reloc_map.vm_temp_off map + 16 }) op';
        release_temps st map;
        emit_icall_trap st
          { is_off = 0; is_src = taddr; is_src_ret = 0; is_nargs = 0; is_call = false }
      | Ret ->
        if epilogue_matched then begin
          emit_result_fixup st map ~outgoing:true;
          emit st (Mov (reg desc.scratch, Mem { base = sp; disp = Reloc_map.ret_off map }));
          emit st (Binop (Add, reg sp, Imm fbytes'));
          emit st (Retrat (reg desc.scratch))
        end
        else begin
          (* a stray return (gadget): consume one word, then return
             via the relocated slot — pad-sized entropy even here *)
          emit st (Binop (Add, reg sp, Imm 4));
          if legal st (Retrat (Mem { base = sp; disp = Reloc_map.ret_off map - 4 })) then
            emit st (Retrat (Mem { base = sp; disp = Reloc_map.ret_off map - 4 }))
          else begin
            emit st (Mov (reg desc.scratch, Mem { base = sp; disp = Reloc_map.ret_off map - 4 }));
            emit st (Retrat (reg desc.scratch))
          end
        end
      | Retr r ->
        if epilogue_matched then begin
          emit_result_fixup st map ~outgoing:true;
          emit st (Mov (reg desc.scratch, Mem { base = sp; disp = Reloc_map.ret_off map }));
          emit st (Binop (Add, reg sp, Imm fbytes'));
          emit st (Retrat (reg desc.scratch))
        end
        else (
          match Reloc_map.map_reg map r with
          | Reloc_map.Lreg r' -> emit st (Retrat (reg r'))
          | Reloc_map.Lpad off ->
            emit st (Mov (reg desc.scratch, Mem { base = sp; disp = off }));
            emit st (Retrat (reg desc.scratch)))
      | Syscall | Nop | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ ->
        assert false (* not terminators *)
      | Trap _ | Callrat _ | Retrat _ ->
        (* pseudo-instructions never appear in source sections *)
        raise (Wild taddr)
  end

let prepare (cfg : Config.t) desc ~read ~as_loaded ~fatbin ~map_of ~src =
  let st = Domain.DLS.get scratch in
  st.desc <- desc;
  st.nstub <- 0;
  st.emitted <- 0;
  st.spans <- [];
  st.consumed <- 0;
  st.budget <- (if cfg.opt_level >= 1 then cfg.superblock_budget else 0);
  st.icalls <- [];
  let fs0 =
    match Fatbin.func_at fatbin desc.which src with Some fs -> fs | None -> raise (Wild src)
  in
  let map0 = map_of fs0 in
  (* Every segment of the unit lies in [fs0] or runs on past its end. *)
  let code = if as_loaded fs0 then Some (Fatbin.decoded fs0 desc.which) else None in
  do_segment st ~read ~code ~fatbin ~map_of ~unit_start:true fs0 map0 src;
  (* Layout: main items first, then one out-of-line Trap per stub. *)
  let n = st.emitted in
  let body = ref 0 in
  for i = 0 to n - 1 do
    body := !body + ilen st st.it_instr.(i)
  done;
  let p =
    {
      p_which = desc.which;
      p_src = src;
      p_items = Array.sub st.it_instr 0 n;
      p_refs = Array.sub st.it_ref 0 n;
      p_body = !body;
      p_stub_targets = Array.sub st.stub_tgt 0 st.nstub;
      p_total = !body + (st.nstub * ilen st (Trap 0));
      p_icalls = List.rev st.icalls;
      p_spans = List.rev st.spans;
      p_instrs = st.consumed;
    }
  in
  st.spans <- [];
  st.icalls <- [];
  p

let prepared_size p = p.p_total
let prepared_spans p = p.p_spans

let encoded_size_mismatch what got want =
  failwith (Printf.sprintf "translator: %s encoded to %d bytes, laid out for %d" what got want)

(* Encode a prepared unit at a concrete cache address, into one byte
   string of exactly its size: the items in order, then the stubs. *)
let layout p ~base =
  let which = p.p_which in
  let items = p.p_items in
  let b = Bytes.create p.p_total in
  let trap_len = Isa.length which (Trap 0) in
  let stubs = ref [] and icalls = ref [] and pending = ref p.p_icalls in
  let pos = ref 0 in
  for i = 0 to Array.length items - 1 do
    let off = !pos in
    let ins = items.(i) in
    let ins' =
      let rf = p.p_refs.(i) in
      if rf = no_ref then ins
      else
        let stub_addr = base + p.p_body + (rf * trap_len) in
        match ins with
        | Jcc (c, _) -> Jcc (c, stub_addr)
        | Callrat { src_ret; _ } -> Callrat { target = stub_addr; src_ret }
        | _ -> assert false
    in
    (match ins' with
    | Trap target when target land icall_flag <> 0 -> (
      match !pending with
      | info :: rest ->
        assert (info.is_src = target lxor icall_flag);
        icalls := { info with is_off = off } :: !icalls;
        pending := rest
      | [] -> assert false)
    | Trap target -> stubs := { es_off = off; es_target_src = target } :: !stubs
    | _ -> ());
    pos := Isa.encode_into which b ~pos:off ~at:(base + off) ins'
  done;
  if !pos <> p.p_body then encoded_size_mismatch "body" !pos p.p_body;
  for s = 0 to Array.length p.p_stub_targets - 1 do
    let off = !pos and target = p.p_stub_targets.(s) in
    stubs := { es_off = off; es_target_src = target } :: !stubs;
    pos := Isa.encode_into which b ~pos:off ~at:(base + off) (Trap target)
  done;
  if !pos <> p.p_total then encoded_size_mismatch "unit" !pos p.p_total;
  {
    u_src = p.p_src;
    u_bytes = Bytes.unsafe_to_string b;
    u_size = p.p_total;
    u_stubs = List.rev !stubs;
    u_icalls = List.rev !icalls;
    u_src_spans = p.p_spans;
    u_instrs = p.p_instrs;
    u_emitted = Array.length items;
  }

let translate cfg desc ~read ~as_loaded ~fatbin ~map_of ~src ~base =
  layout (prepare cfg desc ~read ~as_loaded ~fatbin ~map_of ~src) ~base
