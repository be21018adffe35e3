(* White-box compiler tests: IR construction and validation, liveness
   dataflow, register-allocation invariants, frame layout. *)

module Ir = Hipstr_compiler.Ir
module Lower = Hipstr_compiler.Lower
module Liveness = Hipstr_compiler.Liveness
module Regalloc = Hipstr_compiler.Regalloc
module Frame = Hipstr_compiler.Frame
module Compile = Hipstr_compiler.Compile
module Fatbin = Hipstr_compiler.Fatbin
module Parser = Hipstr_minic.Parser
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa

let ir_of src = Lower.program (Parser.parse src)

let func_named ir name =
  List.find (fun (f : Ir.func) -> f.fn_name = name) ir.Ir.pr_funcs

let test_lowering_shapes () =
  let ir =
    ir_of
      {| int f(int a, int b) {
           int x = a + b;
           if (x > 3) { x = x * 2; } else { x = x - 1; }
           while (x > 0) { x = x - 7; }
           return x;
         }
         int main() { return f(1, 2); } |}
  in
  let f = func_named ir "f" in
  Alcotest.(check int) "two params" 2 (List.length f.fn_params);
  Alcotest.(check bool) "several blocks" true (Array.length f.fn_blocks >= 6);
  Alcotest.(check bool) "no locals area (no arrays)" true (f.fn_locals_bytes = 0);
  (* conditions lower to Br terminators, never to flags across blocks *)
  Array.iter
    (fun (b : Ir.block) ->
      match b.b_term with
      | Ir.Br _ | Ir.Jmp _ | Ir.Ret _ -> ())
    f.fn_blocks

let test_validation_rejects_broken_ir () =
  let ir = ir_of "int main() { return 1; }" in
  let f = List.hd ir.pr_funcs in
  let broken =
    { ir with pr_funcs = [ { f with fn_blocks = [| { (f.fn_blocks.(0)) with b_term = Ir.Jmp 99 } |] } ] }
  in
  (match Ir.validate broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "label out of range accepted");
  let no_main = { ir with pr_funcs = [ { f with fn_name = "not_main" } ] } in
  match Ir.validate no_main with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing main accepted"

let test_liveness_basic () =
  let ir =
    ir_of
      {| int f(int a) {
           int x = a + 1;
           int y = x * 2;
           return y;
         }
         int main() { return f(3); } |}
  in
  let f = func_named ir "f" in
  let lv = Liveness.analyze f in
  (* parameters have no defining instruction, so they are exactly the
     entry's live-ins (the prologue materializes them) *)
  Alcotest.(check (list int)) "entry live-in = params" (List.sort compare f.fn_params)
    (Liveness.live_in lv 0);
  Alcotest.(check bool) "no values cross calls in a leaf" true
    (Liveness.live_across_call lv = [])

let test_liveness_across_call () =
  let ir =
    ir_of
      {| int g(int a) { return a + 1; }
         int f(int a) {
           int keep = a * 3;
           int r = g(a);
           return keep + r;
         }
         int main() { return f(3); } |}
  in
  let f = func_named ir "f" in
  let lv = Liveness.analyze f in
  Alcotest.(check bool) "a value lives across the call" true
    (List.length (Liveness.live_across_call lv) >= 1)

let test_regalloc_no_interference_violation () =
  (* values simultaneously live must not share a register *)
  let ir =
    ir_of
      {| int f(int a, int b, int c, int d) {
           int w = a + b;
           int x = b + c;
           int y = c + d;
           int z = d + a;
           return w * x + y * z + w * y + x * z;
         }
         int main() { return f(1, 2, 3, 4); } |}
  in
  let f = func_named ir "f" in
  let lv = Liveness.analyze f in
  List.iter
    (fun desc ->
      let alloc = Regalloc.allocate desc f lv in
      (* brute check: replay liveness per block and assert no two
         simultaneously-live register-homed values share a register *)
      Array.iter
        (fun (b : Ir.block) ->
          let live = ref (Liveness.live_out lv b.b_label) in
          ignore live;
          let pairs = Liveness.live_in lv b.b_label in
          let regs =
            List.filter_map
              (fun v -> match alloc.homes.(v) with Regalloc.Hreg r -> Some r | Hslot -> None)
              pairs
          in
          if List.length (List.sort_uniq compare regs) <> List.length regs then
            Alcotest.failf "register shared among simultaneously-live values (block %d)" b.b_label)
        f.fn_blocks)
    [ Isa.desc Desc.Cisc; Isa.desc Desc.Risc ]

let test_regalloc_syscall_restriction () =
  let ir =
    ir_of
      {| int main() {
           int a = 5;
           int b = 7;
           print(a);
           return a + b;
         } |}
  in
  let f = func_named ir "main" in
  let lv = Liveness.analyze f in
  let across = Liveness.live_across_syscall lv in
  let alloc = Regalloc.allocate (Isa.desc Desc.Cisc) f lv in
  List.iter
    (fun v ->
      match alloc.homes.(v) with
      | Regalloc.Hreg r when r <= 3 ->
        Alcotest.failf "value v%d lives across a syscall but is homed in r%d" v r
      | _ -> ())
    across

let test_frame_layout_structure () =
  let ir =
    ir_of
      {| int callee(int a, int b, int c) { return a + b + c; }
         int f() {
           int arr[10];
           arr[0] = 1;
           return callee(arr[0], 2, 3);
         }
         int main() { return f(); } |}
  in
  let f = func_named ir "f" in
  let lv = Liveness.analyze f in
  let a = Regalloc.allocate (Isa.desc Desc.Cisc) f lv in
  let frame = Frame.layout f ~needs_slot:a.needs_slot in
  Alcotest.(check int) "outgoing words for 3 args" 3 frame.outgoing_words;
  Alcotest.(check int) "locals 40 bytes" 40 frame.locals_bytes;
  Alcotest.(check bool) "16-aligned" true (frame.frame_bytes mod 16 = 0);
  Alcotest.(check int) "ret at the top" (frame.frame_bytes - 4) frame.ret_off;
  Alcotest.(check bool) "scratch below ret" true (frame.scratch_off < frame.ret_off);
  Alcotest.(check int) "incoming arg 1 beyond the frame" (frame.frame_bytes + 4)
    (Frame.incoming_arg_off frame 1)

let test_fatbin_symbols () =
  let fb =
    Compile.to_fatbin
      {| int helper(int x) { return x * 2; }
         int main() { return helper(21); } |}
  in
  let main = Fatbin.find_func fb "main" in
  let helper = Fatbin.find_func fb "helper" in
  (* call-site correspondence across ISAs: same site ids *)
  let sites im = List.map fst (Array.to_list im.Fatbin.im_callsite_ret) in
  Alcotest.(check (list int)) "call sites match across ISAs" (sites main.fs_cisc) (sites main.fs_risc);
  Alcotest.(check int) "one call site in main" 1 (Array.length main.fs_cisc.im_callsite_ret);
  (* address lookups *)
  Alcotest.(check bool) "func_at finds helper" true
    (match Fatbin.func_at fb Desc.Cisc helper.fs_cisc.im_entry with
    | Some fs -> fs.fs_name = "helper"
    | None -> false);
  let _, site = Option.get (Fatbin.callsite_of_ret fb Desc.Cisc (snd main.fs_cisc.im_callsite_ret.(0))) in
  Alcotest.(check int) "callsite_of_ret roundtrip" (fst main.fs_cisc.im_callsite_ret.(0)) site;
  Alcotest.(check bool) "block_starting_at entry" true
    (Fatbin.block_starting_at fb Desc.Cisc main.fs_cisc.im_entry <> None)

let test_code_sections_disjoint () =
  let fb = Compile.to_fatbin "int main() { return 0; }" in
  List.iter
    (fun fs ->
      let c = fs.Fatbin.fs_cisc and r = fs.Fatbin.fs_risc in
      if c.im_entry + c.im_size > r.im_entry && r.im_entry + r.im_size > c.im_entry then
        Alcotest.fail "code sections overlap")
    (Array.to_list fb.fb_funcs)

let () =
  Alcotest.run "compiler-internals"
    [
      ( "ir",
        [
          Alcotest.test_case "lowering shapes" `Quick test_lowering_shapes;
          Alcotest.test_case "validation" `Quick test_validation_rejects_broken_ir;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "liveness basic" `Quick test_liveness_basic;
          Alcotest.test_case "liveness across call" `Quick test_liveness_across_call;
          Alcotest.test_case "regalloc interference" `Quick test_regalloc_no_interference_violation;
          Alcotest.test_case "regalloc syscall restriction" `Quick test_regalloc_syscall_restriction;
        ] );
      ( "layout",
        [
          Alcotest.test_case "frame structure" `Quick test_frame_layout_structure;
          Alcotest.test_case "fatbin symbols" `Quick test_fatbin_symbols;
          Alcotest.test_case "sections disjoint" `Quick test_code_sections_disjoint;
        ] );
    ]
