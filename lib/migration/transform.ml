module Fatbin = Hipstr_compiler.Fatbin
module Frame = Hipstr_compiler.Frame
module Ir = Hipstr_compiler.Ir
module Machine = Hipstr_machine.Machine
module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Reloc_map = Hipstr_psr.Reloc_map
module Obs = Hipstr_obs.Obs
open Hipstr_isa

type mode =
  | Native
  | Psr of {
      map_from : Fatbin.func_sym -> Reloc_map.t;
      map_to : Fatbin.func_sym -> Reloc_map.t;
    }

type result = {
  r_frames : int;
  r_words : int;
  r_resume_src : int option;
  r_complete : bool;
  r_cycles : float;
}

let fixed_cycles = 3_000_000.
let per_word_cycles = 25.

(* A uniform view of one function's frame geometry under a mode. *)
type view = {
  total : int;  (** sp distance to the caller's sp *)
  ret_off : int;
  slot : int -> int;  (** original frame offset -> actual offset *)
  locals_off : int;
  out_off : int;
  arg : int -> int;  (** incoming argument j -> offset within this frame *)
}

let view_of mode side (fs : Fatbin.func_sym) =
  let f = fs.fs_frame in
  match mode with
  | Native ->
    {
      total = f.frame_bytes;
      ret_off = f.ret_off;
      slot = (fun k -> k);
      locals_off = f.locals_off;
      out_off = 0;
      arg = (fun j -> Frame.incoming_arg_off f j - f.frame_bytes + f.frame_bytes)
      (* incoming arg j of the *next* callee = this frame's outgoing
         slot j; not used natively *);
    }
  | Psr { map_from; map_to } ->
    let m = (match side with `From -> map_from | `To -> map_to) fs in
    {
      total = Reloc_map.padded_frame m;
      ret_off = Reloc_map.ret_off m;
      slot = Reloc_map.map_slot m;
      locals_off = Reloc_map.map_slot m f.locals_off;
      out_off = Reloc_map.map_slot m 0;
      arg = Reloc_map.arg_off m;
    }

(* Translate a return address across ISAs via the call-site table.
   The exit sentinel passes through unchanged. *)
let xlate_ret fb ~from_isa ~to_isa ret =
  if ret = Layout.exit_sentinel then Some ret
  else
    match Fatbin.callsite_of_ret fb from_isa ret with
    | None -> None
    | Some (fs, site) -> Fatbin.callsite_ret fs to_isa site

(* Translate a function-pointer value (a source-ISA entry address).
   Indexed scan over the function table — this runs once per
   fp-tainted slot of every frame walked, so the closure-per-function
   [Array.iter] form was a measurable allocation source. *)
let rec xlate_fp_scan funcs n to_isa v i =
  if i >= n then None
  else
    let fs = Array.unsafe_get funcs i in
    if
      (Fatbin.image fs Desc.Cisc).Fatbin.im_entry = v
      || (Fatbin.image fs Desc.Risc).Fatbin.im_entry = v
    then Some (Fatbin.image fs to_isa).Fatbin.im_entry
    else xlate_fp_scan funcs n to_isa v (i + 1)

let xlate_fp fb ~to_isa v =
  let funcs = fb.Fatbin.fb_funcs in
  xlate_fp_scan funcs (Array.length funcs) to_isa v 0

(* Transform one frame in place: read everything at from-offsets,
   then write at to-offsets. Returns (ret_src, words_moved, ret_ok).

   The from- and to-offset ranges may overlap (randomized maps), so
   the reads are staged into a pair of preallocated arrays and the
   writes replayed afterwards in the same order the old list pipeline
   produced: value slots, locals block, outgoing block, return slot.
   Two flat int arrays per frame replace several cons cells and a
   tuple per word moved. *)
let transform_frame machine fb mode ~from_isa ~to_isa (fs : Fatbin.func_sym) sp =
  let m = Machine.mem machine in
  let vf = view_of mode `From fs in
  let vt = view_of mode `To fs in
  let f = fs.fs_frame in
  let fp_tainted = fs.fs_ir.Ir.fn_fp_values in
  let nslots = Array.length f.slot_off in
  let nloc = f.locals_bytes / 4 in
  let nout = f.outgoing_words in
  let cap = nslots + nloc + nout + 1 in
  let offs = Array.make cap 0 in
  let vals = Array.make cap 0 in
  let n = ref 0 in
  (* value slots *)
  for v = 0 to nslots - 1 do
    let off = Array.unsafe_get f.slot_off v in
    if off >= 0 then begin
      let raw = Mem.read32 m (sp + vf.slot off) in
      let value =
        if List.mem v fp_tainted then
          match xlate_fp fb ~to_isa raw with Some v' -> v' | None -> raw
        else raw
      in
      offs.(!n) <- vt.slot off;
      vals.(!n) <- value;
      incr n
    end
  done;
  (* locals and outgoing regions as blocks *)
  for i = 0 to nloc - 1 do
    offs.(!n) <- vt.locals_off + (4 * i);
    vals.(!n) <- Mem.read32 m (sp + vf.locals_off + (4 * i));
    incr n
  done;
  for i = 0 to nout - 1 do
    offs.(!n) <- vt.out_off + (4 * i);
    vals.(!n) <- Mem.read32 m (sp + vf.out_off + (4 * i));
    incr n
  done;
  (* return address *)
  let ret_src = Mem.read32 m (sp + vf.ret_off) in
  let ret_to = xlate_ret fb ~from_isa ~to_isa ret_src in
  offs.(!n) <- vt.ret_off;
  vals.(!n) <- (match ret_to with Some r -> r | None -> ret_src);
  incr n;
  let words = !n in
  for i = 0 to words - 1 do
    Mem.write32 m (sp + Array.unsafe_get offs i) (Array.unsafe_get vals i)
  done;
  (ret_src, words, ret_to <> None)

(* Walk and transform the whole stack starting from the frame of
   [top_fs] at [sp]. *)
let transform_stack machine fb mode ~from_isa ~to_isa top_fs sp0 =
  let frames = ref 0 in
  let words = ref 0 in
  let complete = ref true in
  let rec walk fs sp =
    frames := !frames + 1;
    let ret_src, w, ok = transform_frame machine fb mode ~from_isa ~to_isa fs sp in
    words := !words + w;
    if not ok then complete := false
    else if ret_src <> Layout.exit_sentinel then begin
      match Fatbin.func_at fb from_isa ret_src with
      | None -> complete := false
      | Some caller_fs ->
        if !frames < 512 then walk caller_fs (sp + (view_of mode `From fs).total)
    end
  in
  walk top_fs sp0;
  (!frames, !words, !complete)

(* Transform costs are whole cycles (fixed drain + integer per-word
   copies), so the femtocycle conversion is exact. *)
let charge_destination machine cycles =
  let p = (Machine.cpu machine).Hipstr_machine.Cpu.perf in
  p.Hipstr_machine.Cpu.cycles_fc <-
    p.Hipstr_machine.Cpu.cycles_fc + Hipstr_machine.Cpu.fc_of_cycles cycles

let finish machine ~to_isa ~frames ~words ~resume ~complete =
  (* Architectural state transfer: the stack pointer lives in a
     different register on each ISA; the result register is index 0 on
     both. Everything else live is in frame slots by the equivalence-
     point discipline. *)
  let cpu = Machine.cpu machine in
  let from_sp = (Isa.desc (Machine.active machine)).sp in
  let to_sp = (Isa.desc to_isa).sp in
  let sp_value = cpu.regs.(from_sp) in
  let cycle_before = Hipstr_machine.Cpu.cycles cpu.Hipstr_machine.Cpu.perf in
  Machine.switch_core machine to_isa;
  cpu.regs.(to_sp) <- sp_value;
  let cycles = fixed_cycles +. (per_word_cycles *. float_of_int words) in
  charge_destination machine cycles;
  let obs = Machine.obs machine in
  if Obs.on obs then begin
    let m = Obs.metrics obs in
    Obs.Metrics.incr (Obs.Metrics.counter m "migration.stack_transforms");
    Obs.Metrics.observe (Obs.Metrics.histogram m "migration.frames") (float_of_int frames);
    Obs.Metrics.observe (Obs.Metrics.histogram m "migration.words") (float_of_int words);
    Obs.Metrics.observe (Obs.Metrics.histogram m "migration.cycles") cycles;
    (* the span covers exactly the cycles the transform charged: the
       fixed pipeline drain plus the per-word copy cost *)
    let sp =
      Obs.enter_span obs ~name:"stack_transform"
        ~attrs:
          [
            ("isa", Isa.name (Machine.active machine));
            ("pid", string_of_int (Machine.owner machine));
            ("frames", string_of_int frames);
            ("words", string_of_int words);
          ]
        ~cycle:cycle_before ()
    in
    Obs.exit_span obs sp ~cycle:(Hipstr_machine.Cpu.cycles cpu.Hipstr_machine.Cpu.perf)
  end;
  { r_frames = frames; r_words = words; r_resume_src = resume; r_complete = complete; r_cycles = cycles }

let at_return machine fb mode ~target_src =
  let from_isa = Machine.active machine in
  let to_isa = Desc.other from_isa in
  let cpu = Machine.cpu machine in
  let sp = cpu.regs.((Machine.desc machine).sp) in
  match Fatbin.func_at fb from_isa target_src with
  | None ->
    (* attack target: nothing walkable; still switch — the payload is
       now interpreted under the other ISA's maps and dies *)
    finish machine ~to_isa ~frames:0 ~words:0 ~resume:None ~complete:false
  | Some fs ->
    let frames, words, complete = transform_stack machine fb mode ~from_isa ~to_isa fs sp in
    let resume =
      (* the return target is itself a call-site return address *)
      xlate_ret fb ~from_isa ~to_isa target_src
    in
    finish machine ~to_isa ~frames ~words ~resume ~complete

let at_call machine fb mode ~call_src ~target_src ~nargs =
  let from_isa = Machine.active machine in
  let to_isa = Desc.other from_isa in
  let cpu = Machine.cpu machine in
  let m = Machine.mem machine in
  let sp = cpu.regs.((Machine.desc machine).sp) in
  let caller = Fatbin.func_at fb from_isa call_src in
  let callee =
    match Fatbin.func_at fb from_isa target_src with
    | Some fs when (Fatbin.image fs from_isa).Fatbin.im_entry = target_src -> Some fs
    | Some _ | None -> None
  in
  match (caller, callee) with
  | Some caller_fs, Some callee_fs ->
    (* Indirect-call arguments are staged in the caller's (relocated)
       outgoing slots — the source VM would have moved them into the
       callee's randomized argument slots at call time; after a
       migration the destination callee expects them in *its* map's
       argument slots, below sp in the future callee frame. *)
    let vcaller_from = view_of mode `From caller_fs in
    let vcallee_to = view_of mode `To callee_fs in
    let arg_words = ref 0 in
    (match mode with
    | Native -> () (* the symmetric layout already matches *)
    | Psr _ ->
      let staged = List.init nargs (fun j -> Mem.read32 m (sp + vcaller_from.out_off + (4 * j))) in
      List.iteri
        (fun j v ->
          incr arg_words;
          Mem.write32 m (sp - vcallee_to.total + vcallee_to.arg j) v)
        staged);
    let frames, words, complete = transform_stack machine fb mode ~from_isa ~to_isa caller_fs sp in
    let resume = Some (Fatbin.image callee_fs to_isa).Fatbin.im_entry in
    finish machine ~to_isa ~frames ~words:(words + !arg_words) ~resume ~complete
  | Some caller_fs, None ->
    (* suspicious indirect transfer to a non-entry target: transform
       the legitimate stack, then report unmappable *)
    let frames, words, complete = transform_stack machine fb mode ~from_isa ~to_isa caller_fs sp in
    finish machine ~to_isa ~frames ~words ~resume:None ~complete
  | None, _ -> finish machine ~to_isa ~frames:0 ~words:0 ~resume:None ~complete:false
