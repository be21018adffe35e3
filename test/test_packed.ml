(* The packed flat-dispatch representation must be lossless: packing
   any decodable instruction into the three meta/payload words and
   unpacking must give back exactly the instruction and length (the
   encoding is total) — checked exhaustively over every constructor ×
   operand-kind combination, by QCheck over random operand values,
   and over every instruction decodable from the real workloads' fat
   binaries at every byte offset (including gadget-style misaligned
   decodes). Whether the packed dispatcher then *executes* those words
   exactly like the per-instruction decode oracle is test_interp's
   decode-cache on/off differential. *)

module Minstr = Hipstr_isa.Minstr
module Desc = Hipstr_isa.Desc
module Packed = Hipstr_machine.Packed
module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Exec = Hipstr_machine.Exec
module Isa = Hipstr_isa.Isa
module Fatbin = Hipstr_compiler.Fatbin
module Workloads = Hipstr_workloads.Workloads

let show_instr (i : Minstr.t) =
  let op : Minstr.operand -> string = function
    | Reg r -> Printf.sprintf "r%d" r
    | Imm k -> Printf.sprintf "#%d" k
    | Mem { base; disp } -> Printf.sprintf "[r%d%+d]" base disp
  in
  match i with
  | Nop -> "nop"
  | Mov (d, s) -> Printf.sprintf "mov %s, %s" (op d) (op s)
  | Lea (d, b, k) -> Printf.sprintf "lea r%d, [r%d%+d]" d b k
  | Binop (o, d, s) ->
    Printf.sprintf "binop%d %s, %s"
      (match o with
      | Add -> 0 | Sub -> 1 | Mul -> 2 | Divs -> 3 | Rems -> 4 | And -> 5
      | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9 | Sar -> 10)
      (op d) (op s)
  | Cmp (a, b) -> Printf.sprintf "cmp %s, %s" (op a) (op b)
  | Push s -> "push " ^ op s
  | Pop d -> "pop " ^ op d
  | Jmp t -> Printf.sprintf "jmp 0x%x" t
  | Jcc (_, t) -> Printf.sprintf "jcc 0x%x" t
  | Jmpr s -> "jmp *" ^ op s
  | Call t -> Printf.sprintf "call 0x%x" t
  | Callr s -> "call *" ^ op s
  | Ret -> "ret"
  | Retr r -> Printf.sprintf "ret r%d" r
  | Retrat s -> "ret.rat " ^ op s
  | Callrat { target; src_ret } -> Printf.sprintf "call.rat 0x%x (ret 0x%x)" target src_ret
  | Syscall -> "syscall"
  | Trap a -> Printf.sprintf "trap 0x%x" a

let check_roundtrip label i len =
  let m, v1, v2 = Packed.pack i len in
  let i', len' = Packed.unpack m v1 v2 in
  if i' <> i || len' <> len then
    Alcotest.failf "%s: %s (len %d) round-tripped to %s (len %d)" label (show_instr i) len
      (show_instr i') len'

(* ------------------------------------------------------------------ *)
(* Exhaustive constructor × operand-kind sweep. Immediates and
   displacements cover the signed 32-bit corners; registers cover the
   4-bit field corners. Lengths cycle through the 1..12 range real
   encoders emit. *)

let test_roundtrip_exhaustive () =
  let imms = [ 0; 1; -1; 42; -1000; 0x7fffffff; -0x80000000 ] in
  let operands =
    List.concat
      [
        List.map (fun r -> Minstr.Reg r) [ 0; 1; 7; 15 ];
        List.map (fun k -> Minstr.Imm k) imms;
        List.concat_map
          (fun base -> List.map (fun disp -> Minstr.Mem { base; disp }) imms)
          [ 0; 3; 15 ];
      ]
  in
  let targets = [ 0; 1; Layout.exit_sentinel; Layout.mem_size - 1 ] in
  let instrs =
    List.concat
      [
        [ Minstr.Nop; Minstr.Ret; Minstr.Syscall ];
        List.concat_map
          (fun d -> List.map (fun s -> Minstr.Mov (d, s)) operands)
          operands;
        List.concat_map
          (fun (op : Minstr.binop) ->
            List.concat_map
              (fun d -> List.map (fun s -> Minstr.Binop (op, d, s)) operands)
              operands)
          (Array.to_list Minstr.all_binops);
        List.concat_map (fun a -> List.map (fun b -> Minstr.Cmp (a, b)) operands) operands;
        List.concat_map (fun d -> List.map (fun k -> Minstr.Lea (d, 15 - d, k)) imms) [ 0; 5; 15 ];
        List.map (fun s -> Minstr.Push s) operands;
        List.map (fun d -> Minstr.Pop d) operands;
        List.map (fun t -> Minstr.Jmp t) targets;
        List.concat_map
          (fun (c : Minstr.cond) -> List.map (fun t -> Minstr.Jcc (c, t)) targets)
          (Array.to_list Minstr.all_conds);
        List.map (fun s -> Minstr.Jmpr s) operands;
        List.map (fun t -> Minstr.Call t) targets;
        List.map (fun s -> Minstr.Callr s) operands;
        List.map (fun r -> Minstr.Retr r) [ 0; 1; 15 ];
        List.map (fun s -> Minstr.Retrat s) operands;
        List.concat_map
          (fun target ->
            List.map (fun src_ret -> Minstr.Callrat { target; src_ret }) targets)
          targets;
        List.map (fun a -> Minstr.Trap a) targets;
      ]
  in
  let lens = [| 1; 2; 3; 4; 5; 6; 7; 8; 12 |] in
  List.iteri
    (fun n i -> check_roundtrip "exhaustive" i lens.(n mod Array.length lens))
    instrs;
  Printf.printf "round-tripped %d instruction forms\n" (List.length instrs)

(* ------------------------------------------------------------------ *)
(* Random operand values, QCheck-driven. *)

let gen_operand =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun r -> Minstr.Reg r) (int_bound 15));
        (3, map (fun k -> Minstr.Imm k) (map Int32.to_int ui32));
        ( 3,
          map2
            (fun base disp -> Minstr.Mem { base; disp })
            (int_bound 15) (map Int32.to_int ui32) );
      ])

let gen_instr =
  QCheck.Gen.(
    let addr = int_bound (Layout.mem_size - 1) in
    frequency
      [
        (1, return Minstr.Nop);
        (4, map2 (fun d s -> Minstr.Mov (d, s)) gen_operand gen_operand);
        ( 4,
          map3
            (fun op d s -> Minstr.Binop (Minstr.all_binops.(op), d, s))
            (int_bound (Array.length Minstr.all_binops - 1))
            gen_operand gen_operand );
        (2, map2 (fun a b -> Minstr.Cmp (a, b)) gen_operand gen_operand);
        ( 2,
          map3
            (fun d b k -> Minstr.Lea (d, b, k))
            (int_bound 15) (int_bound 15) (map Int32.to_int ui32) );
        (2, map (fun s -> Minstr.Push s) gen_operand);
        (2, map (fun d -> Minstr.Pop d) gen_operand);
        (1, map (fun t -> Minstr.Jmp t) addr);
        ( 2,
          map2
            (fun c t -> Minstr.Jcc (Minstr.all_conds.(c), t))
            (int_bound (Array.length Minstr.all_conds - 1))
            addr );
        (1, map (fun s -> Minstr.Jmpr s) gen_operand);
        (1, map (fun t -> Minstr.Call t) addr);
        (1, map (fun s -> Minstr.Callr s) gen_operand);
        (1, return Minstr.Ret);
        (1, map (fun r -> Minstr.Retr r) (int_bound 15));
        (1, map (fun s -> Minstr.Retrat s) gen_operand);
        (1, map2 (fun target src_ret -> Minstr.Callrat { target; src_ret }) addr addr);
        (1, return Minstr.Syscall);
        (1, map (fun a -> Minstr.Trap a) addr);
      ])

let roundtrip_prop =
  QCheck.Test.make ~count:2000 ~name:"packed round-trip (random)"
    (QCheck.make
       QCheck.Gen.(map2 (fun i len -> (i, len)) gen_instr (int_range 1 12))
       ~print:(fun (i, len) -> Printf.sprintf "%s (len %d)" (show_instr i) len))
    (fun (i, len) ->
      let m, v1, v2 = Packed.pack i len in
      Packed.unpack m v1 v2 = (i, len))

(* ------------------------------------------------------------------ *)
(* Corpus walk: everything either real decoder produces from the real
   workloads' code bytes — at every byte offset, so misaligned
   (gadget-style) CISC decodes are covered too — must round-trip. *)

let test_roundtrip_corpus () =
  let mem = Mem.create Layout.mem_size in
  let total = ref 0 in
  List.iter
    (fun name ->
      let fb = Workloads.fatbin (Workloads.find name) in
      Fatbin.load fb mem;
      List.iter
        (fun which ->
          let bytes = Fatbin.code_bytes fb which in
          let lo = List.fold_left (fun a (addr, _) -> min a addr) max_int bytes in
          let hi = List.fold_left (fun a (addr, _) -> max a addr) 0 bytes in
          for addr = lo to hi do
            match Isa.decode which ~read:(Mem.reader mem) addr with
            | None -> ()
            | Some (i, len) ->
              incr total;
              check_roundtrip (Printf.sprintf "%s/0x%x" name addr) i len
          done)
        [ Desc.Cisc; Desc.Risc ])
    Workloads.names;
  Printf.printf "round-tripped %d decoded corpus instructions\n" !total;
  Alcotest.(check bool) "corpus non-empty" true (!total > 10_000)

let () =
  Alcotest.run "packed"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "exhaustive forms" `Quick test_roundtrip_exhaustive;
          QCheck_alcotest.to_alcotest roundtrip_prop;
          Alcotest.test_case "decoded corpus" `Quick test_roundtrip_corpus;
        ] );
    ]
