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

type st = {
  cfg : Config.t;
  desc : Desc.t;
  mutable it_instr : Minstr.t array; (* emitted instructions, [0, emitted) *)
  mutable it_ref : int array; (* parallel stub refs, [no_ref] if none *)
  mutable nstub : int;
  mutable stub_targets : (int * int) list; (* stub idx -> target src, reverse *)
  mutable emitted : int;
}

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

type mark = Mnone | Mphys_dst | Margstore of int (* relocated displacement *)

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

(* Decode a straight-line segment (terminator inclusive). Returns the
   body in *reverse* with its length — the caller fills an array
   backwards, which skips the [List.rev] copy the old interface
   paid per scanned instruction. *)
let scan_segment st ~read pc ~max_instrs =
  let rec go addr n acc =
    if n >= max_instrs then (acc, n, None, addr)
    else
      match Isa.decode st.desc.which ~read addr with
      | None -> (acc, n, None, addr)
      | Some (i, len) ->
        if Minstr.is_control i then (acc, n, Some (addr, i, len), addr + len)
        else go (addr + len) (n + 1) ((addr, i, len) :: acc)
  in
  go pc 0 []

let rec fill_rev a l i =
  match l with
  | [] -> ()
  | hd :: tl ->
    a.(i) <- hd;
    fill_rev a tl (i - 1)

let body_array rev n =
  match rev with
  | [] -> [||]
  | hd :: _ ->
    let a = Array.make n hd in
    fill_rev a rev (n - 1);
    a

(* Identify syscall windows and terminal-call argument stores. The
   scans are top-level recursive functions, not local closures —
   [compute_marks] runs per segment and the only allocations it
   should make are the marks array and the [Margstore] payloads. *)

(* Syscall windows: the run of [mov (reg j), [sp+4j]] loads just
   before each syscall keeps physical destinations; the first
   following [mov _, (reg ret)] keeps a physical source. *)
let rec syscall_back sp (body : (int * Minstr.t * int) array) marks k =
  if k >= 0 then
    match body.(k) with
    | _, Mov (Reg r, Mem { base; disp }), _ when base = sp && r <= 3 && disp = 4 * r ->
      marks.(k) <- Mphys_dst;
      syscall_back sp body marks (k - 1)
    | _ -> ()

(* Terminal direct call: the stores into the outgoing region in the
   trailing run of moves (which may interleave temp loads) are that
   callee's arguments. The scan stops at the first non-move or at a
   syscall, whose own staging must stay under the generic slot
   coloring. *)
let rec argstore_back sp out_words callee_map fpad (body : (int * Minstr.t * int) array) marks k =
  if k >= 0 && marks.(k) = Mnone then
    match body.(k) with
    | _, Mov (Mem { base; disp }, _), _ when base = sp && disp >= 0 && disp < 4 * out_words ->
      let j = disp / 4 in
      marks.(k) <- Margstore (Reloc_map.arg_off callee_map j - fpad);
      argstore_back sp out_words callee_map fpad body marks (k - 1)
    | _, Mov _, _ -> argstore_back sp out_words callee_map fpad body marks (k - 1)
    | _ -> ()

let compute_marks st (map_of_callee : int -> Reloc_map.t option) frame_out_words body term =
  let n = Array.length body in
  let marks = Array.make n Mnone in
  let sp = st.desc.sp in
  for idx = 0 to n - 1 do
    match body.(idx) with
    | _, Syscall, _ -> syscall_back sp body marks (idx - 1)
    | _ -> ()
  done;
  (match term with
  | Some (_, Call target, _) -> (
    match map_of_callee target with
    | None -> ()
    | Some callee_map ->
      let fpad = Reloc_map.padded_frame callee_map in
      argstore_back sp frame_out_words callee_map fpad body marks (n - 1))
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
  p_st : st;
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



let prepare (cfg : Config.t) desc ~read ~fatbin ~map_of ~src =
  let st =
    {
      cfg;
      desc;
      it_instr = Array.make 64 Minstr.Nop;
      it_ref = Array.make 64 no_ref;
      nstub = 0;
      stub_targets = [];
      emitted = 0;
    }
  in
  let sp = desc.sp in
  let fs0 =
    match Fatbin.func_at fatbin desc.which src with Some fs -> fs | None -> raise (Wild src)
  in
  let map0 = map_of fs0 in
  let spans = ref [] in
  let consumed = ref 0 in
  let inline_budget = ref (if cfg.opt_level >= 1 then cfg.superblock_budget else 0) in
  let visited = Hashtbl.create 8 in
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
     conditional fall-through). *)
  let first_segment = ref true in
  let rec do_segment fs map pc =
    let unit_start = !first_segment in
    first_segment := false;
    if Hashtbl.mem visited pc then emit_exit_trap pc
    else begin
      Hashtbl.replace visited pc ();
      let im = Fatbin.image fs desc.which in
      let rev, nbody, term, seg_end = scan_segment st ~read pc ~max_instrs:64 in
      spans := (pc, seg_end - pc) :: !spans;
      let body = body_array rev nbody in
      consumed := !consumed + nbody + (match term with Some _ -> 1 | None -> 0);
      let marks = compute_marks st callee_map_of fs.fs_frame.outgoing_words body term in
      let fbytes = fs.fs_frame.frame_bytes in
      let fbytes' = Reloc_map.padded_frame map in
      let skip = ref 0 in
      (* Prologue rewriting when the segment starts at the entry. *)
      if pc = im.im_entry then begin
        match (desc.call_pushes_ret, Array.length body) with
        | true, n when n >= 1 -> (
          match body.(0) with
          | _, Binop (Sub, Reg r, Imm k), _ when r = sp && k = fbytes - 4 ->
            emit st (Binop (Sub, Reg sp, Imm (fbytes' - 4)));
            (* relocate the hardware-pushed return address *)
            emit st (Mov (Reg desc.scratch, Mem { base = sp; disp = fbytes' - 4 }));
            emit st (Mov (Mem { base = sp; disp = Reloc_map.ret_off map }, Reg desc.scratch));
            skip := 1
          | _ -> ())
        | false, n when n >= 2 -> (
          match (body.(0), body.(1)) with
          | (_, Binop (Sub, Reg r, Imm k), _), (_, Mov (Mem { base; disp }, Reg lr), _)
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
      let n = Array.length body in
      let epi_start =
        match (term, desc.call_pushes_ret) with
        | Some (_, Ret, _), true when n >= 1 -> (
          match body.(n - 1) with
          | _, Binop (Add, Reg r, Imm k), _ when r = sp && k = fbytes - 4 -> n - 1
          | _ -> n)
        | Some (_, Retr rr, _), false when n >= 2 -> (
          match (body.(n - 2), body.(n - 1)) with
          | (_, Mov (Reg lr, Mem { base; disp }), _), (_, Binop (Add, Reg r2, Imm k2), _)
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
        let _, i, _ = body.(idx) in
        rewrite_instr st map marks.(idx) i;
        match i with
        | Syscall -> emit_result_fixup st map ~outgoing:false
        | _ -> ()
      done;
      (* Terminator. *)
      match term with
      | None ->
        (* budget exhausted or undecodable: exit to the VM *)
        emit_exit_trap seg_end
      | Some (taddr, t, tlen) -> (
        let next_src = taddr + tlen in
        match t with
        | Jmp target ->
          if !inline_budget > 0
             && (match Fatbin.func_at fatbin desc.which target with
                | Some fs' -> fs'.fs_name = fs.fs_name
                | None -> false)
          then begin
            inline_budget := !inline_budget - Array.length body - 1;
            do_segment fs map target
          end
          else emit_exit_trap target
        | Jcc (c, target) ->
          let stub = new_stub st target in
          emit st ~rf:stub (Jcc (c, 0));
          if !inline_budget > 0 then begin
            inline_budget := !inline_budget - Array.length body - 1;
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
              (match body.(!k) with
              | _, Mov (Mem { base; disp }, _), _
                when base = sp && disp >= 0 && disp < 4 * fs.fs_frame.outgoing_words ->
                incr cnt
              | _, Mov _, _ -> ()
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
          raise (Wild taddr))
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
  Array.iteri
    (fun i ins ->
      offsets.(i) <- !off;
      off := !off + ilen st ins)
    items;
  let stub_offs = Array.make st.nstub 0 in
  Array.iteri
    (fun i _ ->
      stub_offs.(i) <- !off;
      off := !off + ilen st (Trap 0))
    stub_offs;
  let total = !off in
  {
    p_st = st;
    p_src = src;
    p_items = items;
    p_refs = refs;
    p_offsets = offsets;
    p_stub_targets = stub_targets;
    p_stub_offs = stub_offs;
    p_total = total;
    p_icalls = List.rev !icall_records;
    p_spans = List.rev !spans;
    p_instrs = !consumed;
  }

let prepared_size p = p.p_total
let prepared_spans p = p.p_spans

(* Encode a prepared unit at a concrete cache address. *)
let layout p ~base =
  let st = p.p_st in
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
      Isa.encode_into st.desc.which buf ~at ins')
    items;
  Array.iteri
    (fun s target ->
      let at = base + stub_offs.(s) in
      stubs := { es_off = stub_offs.(s); es_target_src = target } :: !stubs;
      Isa.encode_into st.desc.which buf ~at (Trap target))
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
    u_emitted = st.emitted;
  }

let translate cfg desc ~read ~fatbin ~map_of ~src ~base =
  layout (prepare cfg desc ~read ~fatbin ~map_of ~src) ~base
