open Hipstr_isa
open Minstr

type target = Tblock of Ir.label | Toffset of int | Tfunc of string | Tglobal of string

type item = { it_ins : Minstr.t; it_target : target option }

type t = {
  cg_items : item array;
  cg_block_off : int array;
  cg_block_size : int array;
  cg_size : int;
  cg_callsites : (int * int) list;
}

(* Placeholder for addresses resolved at link time. Wide on RISC
   (does not fit 16 bits), so lengths are final. *)
let placeholder = 0x7FF0000

type gst = {
  desc : Desc.t;
  frame : Frame.t;
  alloc : Regalloc.result;
  mutable rev_items : item list;
  mutable off : int;
  mutable callsites : (int * int) list;
}

let ilen st ins = Isa.length st.desc.which ins

let emit ?target st ins =
  st.rev_items <- { it_ins = ins; it_target = target } :: st.rev_items;
  st.off <- st.off + ilen st ins

let sp st = st.desc.sp
let scr st = st.desc.scratch
let scr2 st = st.desc.scratch2

let home st v : operand =
  match st.alloc.homes.(v) with
  | Regalloc.Hreg r -> Reg r
  | Regalloc.Hslot -> Mem { base = sp st; disp = st.frame.slot_off.(v) }

let rv_op st : Ir.rv -> operand = function V v -> home st v | C k -> Imm k

let is_reg = function Reg _ -> true | Imm _ | Mem _ -> false

let cisc st = st.desc.which = Desc.Cisc

(* mov that respects each ISA's legal operand shapes. *)
let emit_mov st dst src =
  if dst = src then ()
  else
    match (dst, src) with
    | Reg _, _ when cisc st -> emit st (Mov (dst, src))
    | Mem _, (Reg _ | Imm _) when cisc st -> emit st (Mov (dst, src))
    | Mem _, Mem _ when cisc st ->
      emit st (Mov (Reg (scr st), src));
      emit st (Mov (dst, Reg (scr st)))
    | Reg _, _ -> emit st (Mov (dst, src))
    | Mem _, Reg _ -> emit st (Mov (dst, src))
    | Mem _, (Imm _ | Mem _) ->
      emit st (Mov (Reg (scr st), src));
      emit st (Mov (dst, Reg (scr st)))
    | Imm _, _ -> invalid_arg "codegen: mov to immediate"

(* Address operand for mem[base_rv + k]: returns an operand usable as
   a memory reference, loading the base into [scr] if needed. *)
let mem_at st base_rv k : operand =
  match rv_op st base_rv with
  | Reg r -> Mem { base = r; disp = k }
  | (Imm _ | Mem _) as op ->
    emit_mov st (Reg (scr st)) op;
    Mem { base = scr st; disp = k }

let gen_binop st op d a b =
  let dop = home st d in
  let aop = rv_op st a in
  let bop = rv_op st b in
  if cisc st then begin
    match dop with
    | Reg r when bop <> Reg r ->
      emit_mov st dop aop;
      emit st (Binop (op, dop, bop))
    | _ ->
      (* through scratch; CISC allows a memory source operand *)
      emit_mov st (Reg (scr st)) aop;
      emit st (Binop (op, Reg (scr st), bop));
      emit_mov st dop (Reg (scr st))
  end
  else begin
    let rd = match dop with Reg r when bop <> Reg r -> r | _ -> scr st in
    emit_mov st (Reg rd) aop;
    (match bop with
    | Imm k -> emit st (Binop (op, Reg rd, Imm k))
    | Reg rb -> emit st (Binop (op, Reg rd, Reg rb))
    | Mem _ ->
      emit_mov st (Reg (scr2 st)) bop;
      emit st (Binop (op, Reg rd, Reg (scr2 st))));
    if Reg rd <> dop then emit_mov st dop (Reg rd)
  end

(* Emit a comparison of two rvs with legal shapes. *)
let gen_cmp st a b =
  let aop = rv_op st a in
  let bop = rv_op st b in
  if cisc st then begin
    match (aop, bop) with
    | Reg _, _ -> emit st (Cmp (aop, bop))
    | Mem _, (Reg _ | Imm _) -> emit st (Cmp (aop, bop))
    | Mem _, Mem _ ->
      emit_mov st (Reg (scr st)) aop;
      emit st (Cmp (Reg (scr st), bop))
    | Imm _, _ ->
      emit_mov st (Reg (scr st)) aop;
      emit st (Cmp (Reg (scr st), bop))
  end
  else begin
    let ra =
      match aop with
      | Reg r -> r
      | Imm _ | Mem _ ->
        emit_mov st (Reg (scr st)) aop;
        scr st
    in
    match bop with
    | Imm k -> emit st (Cmp (Reg ra, Imm k))
    | Reg rb -> emit st (Cmp (Reg ra, Reg rb))
    | Mem _ ->
      emit_mov st (Reg (scr2 st)) bop;
      emit st (Cmp (Reg ra, Reg (scr2 st)))
  end

let gen_cmpset st c d a b =
  gen_cmp st a b;
  let dop = home st d in
  let direct = cisc st || is_reg dop in
  let target_op = if direct then dop else Reg (scr st) in
  emit st (Mov (target_op, Imm 1));
  (* skip over the "mov 0" when the condition holds *)
  let mov0 = Mov (target_op, Imm 0) in
  let skip_off = st.off + ilen st (Jcc (c, placeholder)) + ilen st mov0 in
  emit ~target:(Toffset skip_off) st (Jcc (c, placeholder));
  emit st mov0;
  if not direct then emit_mov st dop target_op

let gen_load st d base k =
  let addr = mem_at st base k in
  let dop = home st d in
  if is_reg dop then emit st (Mov (dop, addr))
  else begin
    emit st (Mov (Reg (scr2 st), addr));
    emit st (Mov (dop, Reg (scr2 st)))
  end

let gen_store st base k src =
  let addr = mem_at st base k in
  let sop = rv_op st src in
  match sop with
  | Reg _ -> emit st (Mov (addr, sop))
  | Imm _ when cisc st -> emit st (Mov (addr, sop))
  | Imm _ | Mem _ ->
    emit_mov st (Reg (scr2 st)) sop;
    emit st (Mov (addr, Reg (scr2 st)))

let gen_addr st d disp target =
  let dop = home st d in
  match target with
  | None ->
    (* sp-relative locals-area address *)
    if is_reg dop then
      emit st (Lea ((match dop with Reg r -> r | _ -> assert false), sp st, disp))
    else begin
      emit st (Lea (scr st, sp st, disp));
      emit st (Mov (dop, Reg (scr st)))
    end
  | Some tgt ->
    if is_reg dop then emit ~target:tgt st (Mov (dop, Imm placeholder))
    else if cisc st then emit ~target:tgt st (Mov (dop, Imm placeholder))
    else begin
      emit ~target:tgt st (Mov (Reg (scr st), Imm placeholder));
      emit st (Mov (dop, Reg (scr st)))
    end

(* Save register-homed crossing values to their shadow slots, or
   reload them. *)
let shadow_moves st crossing ~save =
  List.iter
    (fun v ->
      match st.alloc.homes.(v) with
      | Regalloc.Hreg r ->
        let slot = Mem { base = sp st; disp = st.frame.slot_off.(v) } in
        if save then emit st (Mov (slot, Reg r)) else emit st (Mov (Reg r, slot))
      | Regalloc.Hslot -> ())
    crossing

let gen_store_direct st slot rv =
  let sop = rv_op st rv in
  match sop with
  | Reg _ -> emit st (Mov (slot, sop))
  | Imm _ when cisc st -> emit st (Mov (slot, sop))
  | Imm _ | Mem _ ->
    emit_mov st (Reg (scr2 st)) sop;
    emit st (Mov (slot, Reg (scr2 st)))

let store_outgoing st j rv = gen_store_direct st (Mem { base = sp st; disp = 4 * j }) rv

let gen_call st crossing dst ~emit_transfer args site =
  shadow_moves st crossing ~save:true;
  List.iteri (fun j a -> store_outgoing st j a) args;
  emit_transfer ();
  st.callsites <- (site, st.off) :: st.callsites;
  (match dst with Some d -> emit_mov st (home st d) (Reg st.desc.ret_reg) | None -> ());
  shadow_moves st crossing ~save:false

let gen_syscall st crossing dst number args =
  shadow_moves st crossing ~save:true;
  store_outgoing st 0 number;
  List.iteri (fun j a -> store_outgoing st (j + 1) a) args;
  let n = List.length args in
  for j = 0 to n do
    emit st (Mov (Reg j, Mem { base = sp st; disp = 4 * j }))
  done;
  emit st Syscall;
  (match dst with Some d -> emit_mov st (home st d) (Reg st.desc.ret_reg) | None -> ());
  shadow_moves st crossing ~save:false

let gen_prologue st (f : Ir.func) =
  let fb = st.frame.frame_bytes in
  if st.desc.call_pushes_ret then emit st (Binop (Sub, Reg (sp st), Imm (fb - 4)))
  else begin
    emit st (Binop (Sub, Reg (sp st), Imm fb));
    match st.desc.lr with
    | Some lr -> emit st (Mov (Mem { base = sp st; disp = st.frame.ret_off }, Reg lr))
    | None -> assert false
  end;
  List.iteri
    (fun j v ->
      let incoming = Mem { base = sp st; disp = Frame.incoming_arg_off st.frame j } in
      emit_mov st (home st v) incoming)
    f.fn_params

let gen_epilogue st rv =
  (match rv with
  | Some r -> emit_mov st (Reg st.desc.ret_reg) (rv_op st r)
  | None -> ());
  let fb = st.frame.frame_bytes in
  if st.desc.call_pushes_ret then begin
    emit st (Binop (Add, Reg (sp st), Imm (fb - 4)));
    emit st Ret
  end
  else begin
    let lr = match st.desc.lr with Some lr -> lr | None -> assert false in
    emit st (Mov (Reg lr, Mem { base = sp st; disp = st.frame.ret_off }));
    emit st (Binop (Add, Reg (sp st), Imm fb));
    emit st (Retr lr)
  end

let gen_instr st lv (f : Ir.func) l j (ins : Ir.instr) =
  match ins with
  | Def (d, rv) -> emit_mov st (home st d) (rv_op st rv)
  | Bin (op, d, a, b) -> gen_binop st op d a b
  | Cmpset (c, d, a, b) -> gen_cmpset st c d a b
  | Load (d, a, k) -> gen_load st d a k
  | Store (a, k, s) -> gen_store st a k s
  | Addr_local (d, off) -> gen_addr st d (st.frame.locals_off + off) None
  | Addr_global (d, g) -> gen_addr st d 0 (Some (Tglobal g))
  | Addr_func (d, fn) -> gen_addr st d 0 (Some (Tfunc fn))
  | Call { dst; callee; args; site } ->
    let crossing = Liveness.crossing_at lv f l j in
    gen_call st crossing dst args site ~emit_transfer:(fun () ->
        emit ~target:(Tfunc callee) st (Call placeholder))
  | Calli { dst; fp; args; site } ->
    let crossing = Liveness.crossing_at lv f l j in
    gen_call st crossing dst args site ~emit_transfer:(fun () ->
        let fop = rv_op st fp in
        match fop with
        | Reg r -> emit st (Callr (Reg r))
        | Mem _ when cisc st -> emit st (Callr fop)
        | Imm _ | Mem _ ->
          emit_mov st (Reg (scr st)) fop;
          emit st (Callr (Reg (scr st))))
  | Syscall { dst; number; args } ->
    let crossing = Liveness.crossing_at lv f l j in
    gen_syscall st crossing dst number args

let gen_term st l nblocks (t : Ir.term) =
  match t with
  | Ret rv -> gen_epilogue st rv
  | Jmp tgt ->
    ignore nblocks;
    if tgt <> l + 1 then emit ~target:(Tblock tgt) st (Jmp placeholder)
  | Br (c, a, b, lt, lf) ->
    gen_cmp st a b;
    if lf = l + 1 then emit ~target:(Tblock lt) st (Jcc (c, placeholder))
    else if lt = l + 1 then emit ~target:(Tblock lf) st (Jcc (negate_cond c, placeholder))
    else begin
      emit ~target:(Tblock lt) st (Jcc (c, placeholder));
      emit ~target:(Tblock lf) st (Jmp placeholder)
    end

let gen desc (f : Ir.func) frame alloc lv =
  let st = { desc; frame; alloc; rev_items = []; off = 0; callsites = [] } in
  let nblocks = Array.length f.fn_blocks in
  let block_off = Array.make nblocks 0 in
  let block_size = Array.make nblocks 0 in
  Array.iteri
    (fun l b ->
      block_off.(l) <- st.off;
      if l = 0 then gen_prologue st f;
      Array.iteri (fun j ins -> gen_instr st lv f l j ins) b.Ir.b_instrs;
      gen_term st l nblocks b.Ir.b_term;
      block_size.(l) <- st.off - block_off.(l))
    f.fn_blocks;
  {
    cg_items = Array.of_list (List.rev st.rev_items);
    cg_block_off = block_off;
    cg_block_size = block_size;
    cg_size = st.off;
    cg_callsites = List.rev st.callsites;
  }

let retarget ins addr =
  match ins with
  | Jmp _ -> Jmp addr
  | Jcc (c, _) -> Jcc (c, addr)
  | Call _ -> Call addr
  | Mov (d, Imm _) -> Mov (d, Imm addr)
  | _ -> invalid_arg "codegen: cannot retarget instruction"

let resolve_item ~base ~block_addr ~func_entry ~global_addr item =
  match item.it_target with
  | None -> item.it_ins
  | Some (Tblock l) -> retarget item.it_ins (block_addr l)
  | Some (Toffset o) -> retarget item.it_ins (base + o)
  | Some (Tfunc fn) -> retarget item.it_ins (func_entry fn)
  | Some (Tglobal g) -> retarget item.it_ins (global_addr g)

(* Every length is final at generation time, so the code is one string
   of exactly [cg_size] bytes. *)
let encode_all desc ~base ~block_addr ~func_entry ~global_addr t =
  let b = Bytes.create t.cg_size in
  let pos =
    Array.fold_left
      (fun pos item ->
        let ins = resolve_item ~base ~block_addr ~func_entry ~global_addr item in
        Isa.encode_into desc.Desc.which b ~pos ~at:(base + pos) ins)
      0 t.cg_items
  in
  if pos <> t.cg_size then failwith "codegen: encoded size disagrees with the generated size";
  Bytes.unsafe_to_string b
