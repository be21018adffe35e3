module Galileo = Hipstr_galileo.Galileo
module Fatbin = Hipstr_compiler.Fatbin
module Mem = Hipstr_machine.Mem
module Machine = Hipstr_machine.Machine
module System = Hipstr.System
module Vm = Hipstr_psr.Vm
module Code_cache = Hipstr_psr.Code_cache
module Safety = Hipstr_migration.Safety
module Workloads = Hipstr_workloads.Workloads
open Hipstr_isa

type report = {
  jr_name : string;
  jr_static_total : int;
  jr_in_cache : int;
  jr_flagging : int;
  jr_survive_migration : int;
  jr_final : int;
  jr_execve_feasible : bool;
}

let analyze ~name (w : Workloads.t) ~seed =
  let fb = Workloads.fatbin w in
  let sys = System.of_fatbin ~seed ~start_isa:Desc.Cisc ~mode:System.Psr_only fb in
  (match System.run sys ~fuel:w.w_fuel with
  | System.Finished _ -> ()
  | _ -> failwith ("jitrop: " ^ name ^ " did not reach steady state"));
  let vm = System.vm sys Desc.Cisc in
  let cache = Vm.cache vm in
  let mem = Machine.mem (System.machine sys) in
  let read = Mem.reader mem in
  let blocks = Code_cache.blocks cache in
  let ranges = List.map (fun (b : Code_cache.block) -> (b.cb_cache, b.cb_size)) blocks in
  let gadgets =
    Galileo.mine ~read ~which:Desc.Cisc ~ranges ()
    |> List.filter (fun g -> g.Galileo.g_kind = Galileo.Ret_gadget)
  in
  let static_total =
    Galileo.mine_program mem fb Desc.Cisc
    |> List.filter (fun g -> g.Galileo.g_kind = Galileo.Ret_gadget)
    |> List.length
  in
  (* Non-flagging starts: cache addresses of units whose source is an
     indirect-transfer target (call-site return or function entry). *)
  let safe_starts = Hashtbl.create 64 in
  List.iter
    (fun (b : Code_cache.block) ->
      let src_is_target =
        Fatbin.callsite_of_ret fb Desc.Cisc b.cb_src <> None
        ||
        match Fatbin.func_at fb Desc.Cisc b.cb_src with
        | Some fs -> (Fatbin.image fs Desc.Cisc).im_entry = b.cb_src
        | None -> false
      in
      if src_is_target then Hashtbl.replace safe_starts b.cb_cache b)
    blocks;
  let block_of_addr a =
    List.find_opt (fun (b : Code_cache.block) -> a >= b.cb_cache && a < b.cb_cache + b.cb_size) blocks
  in
  let non_flagging =
    List.filter (fun g -> Hashtbl.mem safe_starts g.Galileo.g_addr) gadgets
  in
  (* Residue usable after migration: the owning source block is not
     an on-demand equivalence point. *)
  let final =
    List.filter
      (fun g ->
        match block_of_addr g.Galileo.g_addr with
        | None -> false
        | Some b -> (
          match Fatbin.block_at fb Desc.Cisc b.cb_src with
          | None -> true
          | Some (fs, l) -> not (Safety.block_safety fs Desc.Cisc l).Safety.v_ondemand))
      non_flagging
  in
  (* Can the residue still express the four-register execve chain? *)
  let feasible =
    let desc = Isa.desc Desc.Cisc in
    let poppable =
      List.fold_left
        (fun acc g ->
          let e = Galileo.classify ~sp:desc.sp g in
          List.fold_left (fun acc (r, _) -> r :: acc) acc e.Galileo.e_pops)
        [] final
      |> List.sort_uniq compare
    in
    List.for_all (fun r -> List.mem r poppable) [ 0; 1; 2; 3 ]
  in
  {
    jr_name = name;
    jr_static_total = static_total;
    jr_in_cache = List.length gadgets;
    jr_flagging = List.length gadgets - List.length non_flagging;
    jr_survive_migration = List.length non_flagging;
    jr_final = List.length final;
    jr_execve_feasible = feasible;
  }
