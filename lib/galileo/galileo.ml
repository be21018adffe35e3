open Hipstr_isa
module Minstr = Minstr

type kind = Ret_gadget | Jop_gadget

type gadget = {
  g_addr : int;
  g_instrs : Minstr.t list;
  g_bytes : int;
  g_kind : kind;
  g_aligned : bool;
}

let terminator_kind (i : Minstr.t) =
  match i with
  | Ret | Retr _ -> Some Ret_gadget
  | Jmpr _ | Callr _ -> Some Jop_gadget
  | Retrat _ -> Some Ret_gadget (* RAT-mediated returns in translated code *)
  | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ | Jmp _ | Jcc _ | Call _ | Syscall | Nop
  | Trap _ | Callrat _ ->
    None

(* The suffix search reaches [max_back] bytes before a terminator, and
   a gadget is at most [max_instrs] instructions long. *)
let max_back = 24
let max_instrs = 6

(* Decode a straight-line chain from [start] whose final instruction
   is the terminator at exactly [stop_at]; interior control flow
   disqualifies the chain (it would not fall through to the
   terminator). *)
let chain which ~read start stop_at =
  let rec go addr n acc =
    if addr = stop_at then
      match Isa.decode which ~read addr with
      | None -> None
      | Some (i, len) -> (
        match terminator_kind i with
        | Some k -> Some (List.rev (i :: acc), addr + len - start, k)
        | None -> None)
    else if addr > stop_at || n >= max_instrs then None
    else
      match Isa.decode which ~read addr with
      | Some (i, len) when not (Minstr.is_control i) -> go (addr + len) (n + 1) (i :: acc)
      | Some _ | None -> None
  in
  go start 0 []

(* Find candidate terminator positions within a range. For CISC, any
   byte that decodes as a terminator; for RISC, aligned words only. *)
let terminator_positions which ~read start size =
  let positions = ref [] in
  let step = (Isa.desc which).align in
  let pos = ref start in
  while !pos < start + size do
    (match Isa.decode which ~read !pos with
    | Some (i, len) -> (
      match terminator_kind i with
      | Some _ -> positions := (!pos, len) :: !positions
      | None -> ())
    | None -> ());
    pos := !pos + step
  done;
  List.rev !positions

let mine ~read ~which ~ranges ?(aligned_starts = fun _ -> false) () =
  let seen = Hashtbl.create 1024 in
  let gadgets = ref [] in
  let step = (Isa.desc which).align in
  List.iter
    (fun (start, size) ->
      List.iter
        (fun (term_pos, term_len) ->
          (* Try every suffix start within max_back bytes, staying in
             range. The chain must consume the terminator exactly. *)
          ignore term_len;
          let lo = max start (term_pos - max_back) in
          let back = ref term_pos in
          while !back >= lo do
            let s = !back in
            (match chain which ~read s term_pos with
            | Some (instrs, bytes, k) ->
              if not (Hashtbl.mem seen (s, k)) then begin
                Hashtbl.add seen (s, k) ();
                gadgets :=
                  {
                    g_addr = s;
                    g_instrs = instrs;
                    g_bytes = bytes;
                    g_kind = k;
                    g_aligned = aligned_starts s;
                  }
                  :: !gadgets
              end
            | _ -> ());
            back := !back - step
          done)
        (terminator_positions which ~read start size))
    ranges;
  List.rev !gadgets

let mine_program mem fb which =
  let read a = try Hipstr_machine.Mem.read8 mem a with Hipstr_machine.Mem.Fault _ -> -1 in
  let ranges = Hipstr_compiler.Fatbin.code_bytes fb which in
  (* Intended boundaries: decode each function linearly from its
     entry. *)
  let aligned = Hashtbl.create 4096 in
  List.iter
    (fun (start, size) ->
      let pos = ref start in
      let continue_ = ref true in
      while !continue_ && !pos < start + size do
        match Isa.decode which ~read !pos with
        | Some (_, len) ->
          Hashtbl.replace aligned !pos ();
          pos := !pos + len
        | None -> continue_ := false
      done)
    ranges;
  mine ~read ~which ~ranges ~aligned_starts:(Hashtbl.mem aligned) ()

type effect = {
  e_pops : (int * int) list;
  e_reg_reads : int list;
  e_reg_writes : int list;
  e_stack_slots : int list;
  e_mem_writes : bool;
  e_has_syscall : bool;
  e_stack_delta : int option;
}

type absval = Orig | Stack of int | Computed

let classify ~sp g =
  let regs = Array.make 16 Orig in
  let pops : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let reg_reads = ref [] in
  let reg_writes = ref [] in
  let slots = ref [] in
  let mem_writes = ref false in
  let has_syscall = ref false in
  let delta = ref (Some 0) in
  let note_read r = if r <> sp then reg_reads := r :: !reg_reads in
  let note_write r = if r <> sp then reg_writes := r :: !reg_writes in
  let note_slot k = slots := k :: !slots in
  let read_operand (op : Minstr.operand) =
    match op with
    | Reg r ->
      note_read r;
      if r < 16 && r >= 0 then regs.(r) else Computed
    | Imm _ -> Computed
    | Mem { base; disp } ->
      if base = sp then begin
        (match !delta with Some d -> note_slot (d + disp) | None -> ());
        match !delta with Some d -> Stack (d + disp) | None -> Computed
      end
      else begin
        note_read base;
        Computed
      end
  in
  let write_operand (op : Minstr.operand) v =
    match op with
    | Reg r ->
      note_write r;
      if r < 16 && r >= 0 then begin
        regs.(r) <- v;
        (* pops reflect the register's *final* contents: a later
           overwrite cancels the pop *)
        match v with
        | Stack off -> Hashtbl.replace pops r off
        | Orig | Computed -> Hashtbl.remove pops r
      end
    | Mem { base; disp } ->
      if base = sp then (match !delta with Some d -> note_slot (d + disp) | None -> ())
      else begin
        note_read base;
        mem_writes := true
      end
    | Imm _ -> ()
  in
  let bump_sp k = match !delta with Some d -> delta := Some (d + k) | None -> () in
  List.iter
    (fun (i : Minstr.t) ->
      match i with
      | Mov (d, s) -> (
        match d with
        | Reg r when r = sp ->
          ignore (read_operand s);
          delta := None
        | _ ->
          let v = read_operand s in
          write_operand d v)
      | Lea (d, b, _) ->
        if b <> sp then note_read b;
        if d = sp then delta := None
        else begin
          note_write d;
          regs.(d) <- Computed;
          Hashtbl.remove pops d
        end
      | Binop (op, d, s) -> (
        match (d, op, s) with
        | Reg r, Minstr.Add, Imm k when r = sp -> bump_sp k
        | Reg r, Minstr.Sub, Imm k when r = sp -> bump_sp (-k)
        | Reg r, _, _ when r = sp ->
          ignore (read_operand s);
          delta := None
        | _ ->
          ignore (read_operand s);
          ignore (read_operand d);
          write_operand d Computed)
      | Cmp (a, b) ->
        ignore (read_operand a);
        ignore (read_operand b)
      | Push s ->
        ignore (read_operand s);
        (match !delta with Some d -> note_slot (d - 4) | None -> ());
        bump_sp (-4)
      | Pop d -> (
        match d with
        | Reg r when r = sp -> delta := None
        | _ ->
          let v = match !delta with Some d' -> Stack d' | None -> Computed in
          (match !delta with Some d' -> note_slot d' | None -> ());
          bump_sp 4;
          write_operand d v)
      | Ret | Retrat _ -> bump_sp 4
      | Retr r -> note_read r
      | Jmpr s | Callr s -> ignore (read_operand s)
      | Syscall -> has_syscall := true
      | Jmp _ | Jcc _ | Call _ | Callrat _ | Nop | Trap _ -> ())
    g.g_instrs;
  {
    e_pops = Hashtbl.fold (fun r off acc -> (r, off) :: acc) pops [] |> List.sort compare;
    e_reg_reads = List.sort_uniq compare !reg_reads;
    e_reg_writes = List.sort_uniq compare !reg_writes;
    e_stack_slots = List.sort_uniq compare !slots;
    e_mem_writes = !mem_writes;
    e_has_syscall = !has_syscall;
    e_stack_delta = !delta;
  }

let is_viable e = e.e_pops <> []

let randomizable_params e =
  let regs = List.sort_uniq compare (e.e_reg_reads @ e.e_reg_writes) in
  List.length regs + List.length e.e_stack_slots + 1

let count gadgets kind = List.length (List.filter (fun g -> g.g_kind = kind) gadgets)
