(* Gadget-mining tests: hand-crafted byte sequences with known gadget
   content, the classifier's abstract semantics, and mining properties
   over real binaries. *)

module Galileo = Hipstr_galileo.Galileo
module Minstr = Hipstr_isa.Minstr
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Workloads = Hipstr_workloads.Workloads
module Fatbin = Hipstr_compiler.Fatbin
open Minstr

let reader_of_string s i = if i < 0 || i >= String.length s then -1 else Char.code s.[i]

let assemble instrs =
  let buf = Buffer.create 64 in
  List.iter (fun i -> Buffer.add_string buf (Isa.encode Desc.Cisc ~at:(Buffer.length buf) i)) instrs;
  Buffer.contents buf

let mine_string s =
  Galileo.mine ~read:(reader_of_string s) ~which:Desc.Cisc ~ranges:[ (0, String.length s) ] ()

let test_finds_simple_gadget () =
  let code = assemble [ Mov (Reg 1, Reg 2); Pop (Reg 3); Ret ] in
  let gadgets = mine_string code in
  let rets = List.filter (fun g -> g.Galileo.g_kind = Galileo.Ret_gadget) gadgets in
  (* suffixes: [pop;ret], [mov;pop;ret], [ret], plus any unintended *)
  Alcotest.(check bool) "found several suffixes" true (List.length rets >= 3);
  Alcotest.(check bool) "the full suffix is found" true
    (List.exists (fun g -> g.Galileo.g_addr = 0 && List.length g.Galileo.g_instrs = 3) rets)

let test_no_gadget_across_control () =
  (* a jmp between the pop and the ret breaks the chain *)
  let code = assemble [ Pop (Reg 3); Jmp 0x100; Nop; Ret ] in
  let gadgets = mine_string code in
  Alcotest.(check bool) "no chain across the jmp" true
    (not
       (List.exists
          (fun g -> g.Galileo.g_addr = 0 && g.Galileo.g_kind = Galileo.Ret_gadget)
          gadgets))

let test_jop_gadgets () =
  let code = assemble [ Pop (Reg 2); Jmpr (Reg 2) ] in
  let gadgets = mine_string code in
  Alcotest.(check bool) "jop gadget found" true (Galileo.count gadgets Galileo.Jop_gadget >= 1)

let test_unintended_gadget_in_immediate () =
  (* the immediate 0xC3 contains a ret byte *)
  let code = assemble [ Mov (Reg 2, Imm 0xC3); Ret ] in
  let gadgets = mine_string code in
  let unintended =
    List.filter
      (fun g -> g.Galileo.g_kind = Galileo.Ret_gadget && g.Galileo.g_addr <> 0 && g.Galileo.g_addr <> 6)
      gadgets
  in
  Alcotest.(check bool) "unintended decode found" true (List.length unintended >= 1)

let classify instrs =
  Galileo.classify ~sp:7
    { Galileo.g_addr = 0; g_instrs = instrs; g_bytes = 0; g_kind = Galileo.Ret_gadget; g_aligned = true }

let test_classify_pop () =
  let e = classify [ Pop (Reg 3); Ret ] in
  Alcotest.(check bool) "pops r3 at offset 0" true (e.e_pops = [ (3, 0) ]);
  Alcotest.(check (option int)) "delta 8" (Some 8) e.e_stack_delta;
  Alcotest.(check bool) "viable" true (Galileo.is_viable e)

let test_classify_overwritten_pop () =
  let e = classify [ Pop (Reg 3); Mov (Reg 3, Imm 0); Ret ] in
  Alcotest.(check (list (pair int int))) "pop cancelled by overwrite" [] e.e_pops;
  Alcotest.(check bool) "not viable" false (Galileo.is_viable e)

let test_classify_stack_load () =
  let e = classify [ Mov (Reg 1, Mem { base = 7; disp = 12 }); Binop (Add, Reg 7, Imm 8); Ret ] in
  Alcotest.(check bool) "stack load is a pop" true (List.mem (1, 12) e.e_pops);
  Alcotest.(check (option int)) "delta includes sp adjust" (Some 12) e.e_stack_delta

let test_classify_move_propagates_stack () =
  let e = classify [ Pop (Reg 1); Mov (Reg 2, Reg 1); Ret ] in
  Alcotest.(check bool) "both registers hold stack data" true
    (List.mem (1, 0) e.e_pops && List.mem (2, 0) e.e_pops)

let test_classify_clobber_tracking () =
  let e = classify [ Pop (Reg 1); Binop (Xor, Reg 2, Reg 2); Ret ] in
  Alcotest.(check bool) "r2 written" true (List.mem 2 e.e_reg_writes);
  Alcotest.(check bool) "r1 still popped" true (List.mem (1, 0) e.e_pops)

let test_classify_mem_write_and_syscall () =
  let e = classify [ Mov (Mem { base = 2; disp = 0 }, Reg 1); Syscall; Ret ] in
  Alcotest.(check bool) "memory write flagged" true e.e_mem_writes;
  Alcotest.(check bool) "syscall flagged" true e.e_has_syscall

let test_classify_unknown_sp () =
  let e = classify [ Mov (Reg 7, Reg 1); Pop (Reg 2); Ret ] in
  Alcotest.(check (option int)) "sp unknown after mov to sp" None e.e_stack_delta

let test_params_counting () =
  let e = classify [ Pop (Reg 3); Ret ] in
  (* r3 + its stack slot + the return slot *)
  Alcotest.(check int) "randomizable params" 3 (Galileo.randomizable_params e)

let test_mine_program_asymmetry () =
  let fb = Workloads.fatbin (Workloads.find "mcf") in
  let mem = Mem.create Layout.mem_size in
  Fatbin.load fb mem;
  let cisc = Galileo.mine_program mem fb Desc.Cisc in
  let risc = Galileo.mine_program mem fb Desc.Risc in
  let count k l = List.length (List.filter (fun g -> g.Galileo.g_kind = k) l) in
  Alcotest.(check bool) "cisc much larger than risc" true
    (count Galileo.Ret_gadget cisc > 2 * count Galileo.Ret_gadget risc);
  (* RISC gadgets are all word-aligned *)
  List.iter
    (fun g ->
      if g.Galileo.g_addr land 3 <> 0 then Alcotest.failf "unaligned RISC gadget 0x%x" g.Galileo.g_addr)
    risc

let test_gadgets_decode_back () =
  (* every mined gadget must re-decode from memory at its address *)
  let fb = Workloads.fatbin (Workloads.find "lbm") in
  let mem = Mem.create Layout.mem_size in
  Fatbin.load fb mem;
  let read a = try Mem.read8 mem a with Mem.Fault _ -> -1 in
  let gadgets = Galileo.mine_program mem fb Desc.Cisc in
  List.iter
    (fun g ->
      match Isa.decode Desc.Cisc ~read g.Galileo.g_addr with
      | Some (i, _) ->
        if i <> List.hd g.Galileo.g_instrs then Alcotest.failf "mismatch at 0x%x" g.Galileo.g_addr
      | None -> Alcotest.failf "gadget at 0x%x does not decode" g.Galileo.g_addr)
    gadgets

let () =
  Alcotest.run "galileo"
    [
      ( "mining",
        [
          Alcotest.test_case "finds suffixes" `Quick test_finds_simple_gadget;
          Alcotest.test_case "no chain across control" `Quick test_no_gadget_across_control;
          Alcotest.test_case "jop gadgets" `Quick test_jop_gadgets;
          Alcotest.test_case "unintended in immediate" `Quick test_unintended_gadget_in_immediate;
          Alcotest.test_case "cisc/risc asymmetry" `Quick test_mine_program_asymmetry;
          Alcotest.test_case "gadgets decode back" `Quick test_gadgets_decode_back;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "pop" `Quick test_classify_pop;
          Alcotest.test_case "overwritten pop" `Quick test_classify_overwritten_pop;
          Alcotest.test_case "stack load" `Quick test_classify_stack_load;
          Alcotest.test_case "move propagation" `Quick test_classify_move_propagates_stack;
          Alcotest.test_case "clobber tracking" `Quick test_classify_clobber_tracking;
          Alcotest.test_case "mem write and syscall" `Quick test_classify_mem_write_and_syscall;
          Alcotest.test_case "unknown sp" `Quick test_classify_unknown_sp;
          Alcotest.test_case "params counting" `Quick test_params_counting;
        ] );
    ]
