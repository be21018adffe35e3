module Galileo = Hipstr_galileo.Galileo
module Fatbin = Hipstr_compiler.Fatbin
module Config = Hipstr_psr.Config
module Reloc_map = Hipstr_psr.Reloc_map
module Rng = Hipstr_util.Rng
open Hipstr_isa

type gadget_info = {
  gi_gadget : Galileo.gadget;
  gi_effect : Galileo.effect;
  gi_unobfuscated_prob : float;
  gi_viable : bool;
  gi_params : int;
}

type report = {
  r_name : string;
  r_total : int;
  r_jop : int;
  r_unobfuscated : float;
  r_viable : int;
  r_unintentional : int;
  r_infos : gadget_info list;
}

(* Probability that one sampled map leaves the gadget's effect
   intact. Inert gadgets (no register, stack or memory effect — bare
   rets, sp adjustments) are not counted as surviving: they perform no
   attacker-visible action, and their chaining slot is always
   relocated anyway. *)
let survives_map (map : Reloc_map.t) (eff : Galileo.effect) pad =
  let regs = List.sort_uniq compare (eff.e_reg_reads @ eff.e_reg_writes) in
  let inert =
    regs = [] && eff.e_stack_slots = [] && (not eff.e_mem_writes) && not eff.e_has_syscall
  in
  if inert then 0.
  else
  let regs_identity =
    List.for_all
      (fun r -> match Reloc_map.map_reg map r with Reloc_map.Lreg r' -> r' = r | Reloc_map.Lpad _ -> false)
      regs
  in
  if not regs_identity then 0.
  else
    (* each touched slot keeps its coloring with probability ~1 word
       out of the pad *)
    (4. /. float_of_int pad) ** float_of_int (List.length eff.e_stack_slots)

(* Relocation-map draws per function. *)
let samples = 12

let analyze ?(cfg = Config.default) ~seed ~name fb which =
  let gadgets = Galileo.mine_program (Fatbin.baseline fb) fb which in
  let desc = Isa.desc which in
  let sp = desc.sp in
  (* Sampled relocation maps per function. *)
  let maps_of : (string, Reloc_map.t list) Hashtbl.t = Hashtbl.create 32 in
  let function_maps fs =
    match Hashtbl.find_opt maps_of fs.Fatbin.fs_name with
    | Some ms -> ms
    | None ->
      let rng = Rng.create (seed lxor Hashtbl.hash fs.Fatbin.fs_name) in
      let ms = List.init samples (fun _ -> Reloc_map.generate cfg rng desc fs ~hot_regs:[]) in
      Hashtbl.replace maps_of fs.Fatbin.fs_name ms;
      ms
  in
  let infos =
    List.filter_map
      (fun g ->
        if g.Galileo.g_kind <> Galileo.Ret_gadget then None
        else
          let eff = Galileo.classify ~sp g in
          let prob =
            match Fatbin.func_at fb which g.Galileo.g_addr with
            | None -> 0.
            | Some fs ->
              let ms = function_maps fs in
              let total =
                List.fold_left (fun acc m -> acc +. survives_map m eff cfg.pad_bytes) 0. ms
              in
              total /. float_of_int (List.length ms)
          in
          Some
            {
              gi_gadget = g;
              gi_effect = eff;
              gi_unobfuscated_prob = prob;
              gi_viable = Galileo.is_viable eff;
              gi_params = Galileo.randomizable_params eff;
            })
      gadgets
  in
  {
    r_name = name;
    r_total = List.length infos;
    r_jop = Galileo.count gadgets Galileo.Jop_gadget;
    r_unobfuscated = List.fold_left (fun acc i -> acc +. i.gi_unobfuscated_prob) 0. infos;
    r_viable = List.length (List.filter (fun i -> i.gi_viable) infos);
    r_unintentional =
      List.length (List.filter (fun i -> not i.gi_gadget.Galileo.g_aligned) infos);
    r_infos = infos;
  }

let obfuscated_fraction r =
  if r.r_total = 0 then 0. else 1. -. (r.r_unobfuscated /. float_of_int r.r_total)

let viable_fraction r = if r.r_total = 0 then 0. else float_of_int r.r_viable /. float_of_int r.r_total
