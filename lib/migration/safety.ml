module Fatbin = Hipstr_compiler.Fatbin
module Ir = Hipstr_compiler.Ir
open Hipstr_isa

type verdict = { v_baseline : bool; v_ondemand : bool }

let caller_class which =
  let desc = Isa.desc which in
  (* The result register is part of the call-boundary contract, so the
     runtime always knows where it is; only the remaining volatile
     registers are opaque at arbitrary points. *)
  List.filter (fun r -> r <> desc.ret_reg) desc.caller_saved

let block_has_call (fs : Fatbin.func_sym) l =
  Array.exists Ir.instr_has_call fs.fs_ir.Ir.fn_blocks.(l).Ir.b_instrs

(* Baseline equivalence points (prior work): function entries, call
   blocks, and the blocks control reaches right after a call. *)
let call_boundary (fs : Fatbin.func_sym) l =
  l = 0 || block_has_call fs l
  || Array.exists
       (fun (b : Ir.block) ->
         block_has_call fs b.Ir.b_label && List.mem l (Ir.successors b.Ir.b_term))
       fs.fs_ir.Ir.fn_blocks

let block_safety (fs : Fatbin.func_sym) which l =
  let im = Fatbin.image fs which in
  let volatile = caller_class which in
  let live_in = fs.fs_live_in.(l) in
  let transformable v =
    match im.im_homes.(v) with
    | Fatbin.Lslot _ -> true
    | Fatbin.Lreg r -> not (List.mem r volatile)
  in
  let ondemand = List.for_all transformable live_in in
  let baseline = call_boundary fs l in
  { v_baseline = baseline; v_ondemand = ondemand }

type summary = { s_blocks : int; s_baseline_safe : int; s_ondemand_safe : int }

let summarize (fb : Fatbin.t) ~from_isa =
  let blocks = ref 0 and base = ref 0 and od = ref 0 in
  Array.iter
    (fun fs ->
      Array.iteri
        (fun l _ ->
          incr blocks;
          let v = block_safety fs from_isa l in
          if v.v_baseline then incr base;
          if v.v_ondemand then incr od)
        fs.Fatbin.fs_ir.Ir.fn_blocks)
    fb.fb_funcs;
  { s_blocks = !blocks; s_baseline_safe = !base; s_ondemand_safe = !od }

let fraction_ondemand s = if s.s_blocks = 0 then 0. else float_of_int s.s_ondemand_safe /. float_of_int s.s_blocks

let fraction_baseline s = if s.s_blocks = 0 then 0. else float_of_int s.s_baseline_safe /. float_of_int s.s_blocks
