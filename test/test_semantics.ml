(* Instruction-semantics property tests: every ALU operation and
   condition code is checked against an OCaml reference over random
   operands, on both ISAs, by assembling and executing tiny programs
   on the real machine. *)

module Desc = Hipstr_isa.Desc
module Minstr = Hipstr_isa.Minstr
module W32 = Hipstr_util.Wrap32
module Machine = Hipstr_machine.Machine
module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Exec = Hipstr_machine.Exec
module Isa = Hipstr_isa.Isa
open Minstr

let assemble which base instrs mem =
  let at = ref base in
  List.iter
    (fun i ->
      let bytes = Isa.encode which ~at:!at i in
      Mem.blit_string mem !at bytes;
      at := !at + String.length bytes)
    instrs

(* Run: r1 := a; r2 := b; r1 := r1 op r2; print r1; exit *)
let run_binop which op a b =
  let m = Machine.create ~active:which () in
  let base = Layout.code_base which in
  assemble which base
    [
      Mov (Reg 1, Imm a);
      Mov (Reg 2, Imm b);
      Binop (op, Reg 1, Reg 2);
      Mov (Reg 4, Reg 1) (* keep the result away from the syscall regs *);
      Mov (Reg 0, Imm 4);
      Mov (Reg 1, Reg 4);
      Syscall;
      Mov (Reg 0, Imm 1);
      Mov (Reg 1, Imm 0);
      Syscall;
    ]
    (Machine.mem m);
  Machine.boot m ~entry:base;
  match Machine.run m ~fuel:100 with
  | Some (Exec.Exit 0) -> (
    match Hipstr_machine.Sys.output (Machine.os m) with
    | [ v ] -> v
    | _ -> failwith "bad output")
  | t -> failwith ("run failed: " ^ match t with Some t -> Exec.string_of_trap t | None -> "fuel")

(* Signed division as C defines it, computed with Stdlib [Int32] and
   not with [Wrap32], which the machine itself divides through: the
   quotient truncates toward zero, the remainder takes the dividend's
   sign, and [min_int / -1] wraps to [min_int] (remainder 0). Both
   ISAs define a zero divisor to give 0. *)
let int32_divs a b =
  if b = 0 then 0 else Int32.to_int (Int32.div (Int32.of_int a) (Int32.of_int b))

let int32_rems a b =
  if b = 0 then 0 else Int32.to_int (Int32.rem (Int32.of_int a) (Int32.of_int b))

let reference op a b =
  match op with
  | Add -> W32.add a b
  | Sub -> W32.sub a b
  | Mul -> W32.mul a b
  | Divs -> int32_divs a b
  | Rems -> int32_rems a b
  | And -> W32.logand a b
  | Or -> W32.logor a b
  | Xor -> W32.logxor a b
  | Shl -> W32.shl a b
  | Shr -> W32.shr a b
  | Sar -> W32.sar a b

let operand = QCheck.int_range (-2147483648) 2147483647

let prop_binop which name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(triple (int_range 0 10) operand operand)
    (fun (opi, a, b) ->
      let op = all_binops.(opi) in
      run_binop which op a b = reference op a b)

(* Signed division's edge cases, on both ISAs: every sign pairing of a
   division that leaves a remainder (where truncation and flooring
   differ, and the remainder's sign shows whose sign it takes), exact
   divisions, zero divisors and [min_int / -1]. Each expected value is
   written out as C gives it. *)
let division_cases =
  [
    (7, 2, 3, 1);
    (-7, 2, -3, -1);
    (7, -2, -3, 1);
    (-7, -2, 3, -1);
    (-1, 2, 0, -1);
    (1, -2, 0, 1);
    (-6, 3, -2, 0);
    (6, -3, -2, 0);
    (5, 0, 0, 0);
    (-5, 0, 0, 0);
    (0, 0, 0, 0);
    (-2147483648, -1, -2147483648, 0);
    (-2147483648, 1, -2147483648, 0);
    (-2147483648, 2, -1073741824, 0);
    (-2147483647, 2, -1073741823, -1);
    (2147483647, -2, -1073741823, 1);
    (-2147483648, 3, -715827882, -2);
    (-2147483648, 2147483647, -1, -1);
  ]

let test_division_edges which () =
  List.iter
    (fun (a, b, q, r) ->
      Alcotest.(check int) (Printf.sprintf "reference %d / %d" a b) q (int32_divs a b);
      Alcotest.(check int) (Printf.sprintf "reference %d %% %d" a b) r (int32_rems a b);
      Alcotest.(check int) (Printf.sprintf "%d / %d" a b) q (run_binop which Divs a b);
      Alcotest.(check int) (Printf.sprintf "%d %% %d" a b) r (run_binop which Rems a b))
    division_cases

(* Conditions: cmp a, b then jcc — the branch outcome must match the
   mathematical comparison. *)
let run_cond which c a b =
  let m = Machine.create ~active:which () in
  let base = Layout.code_base which in
  (* taken path prints 1, fallthrough prints 0 *)
  let print_and_exit v skip =
    [
      Mov (Reg 0, Imm 4);
      Mov (Reg 1, Imm v);
      Syscall;
      Mov (Reg 0, Imm 1);
      Mov (Reg 1, Imm 0);
      Syscall;
    ]
    @ skip
  in
  (* layout: cmp; jcc taken; [not-taken block]; taken: [taken block] *)
  let ilen i = Isa.length which i in
  let head = [ Mov (Reg 1, Imm a); Mov (Reg 2, Imm b); Cmp (Reg 1, Reg 2) ] in
  let nottaken = print_and_exit 0 [] in
  let head_len = List.fold_left (fun acc i -> acc + ilen i) 0 head in
  let nt_len = List.fold_left (fun acc i -> acc + ilen i) 0 nottaken in
  let jcc = Jcc (c, base + head_len + ilen (Jcc (c, 0)) + nt_len) in
  let program = head @ [ jcc ] @ nottaken @ print_and_exit 1 [] in
  assemble which base program (Machine.mem m);
  Machine.boot m ~entry:base;
  match Machine.run m ~fuel:100 with
  | Some (Exec.Exit 0) -> (
    match Hipstr_machine.Sys.output (Machine.os m) with
    | [ v ] -> v = 1
    | _ -> failwith "bad output")
  | t -> failwith ("run failed: " ^ match t with Some t -> Exec.string_of_trap t | None -> "fuel")

let cond_reference c a b =
  let ua = W32.unsigned a and ub = W32.unsigned b in
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b
  | Le -> a <= b
  | Ult -> ua < ub
  | Uge -> ua >= ub

let prop_cond which name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(triple (int_range 0 7) operand operand)
    (fun (ci, a, b) ->
      let c = all_conds.(ci) in
      run_cond which c a b = cond_reference c a b)

(* Cross-ISA agreement on random straight-line register programs. *)
let prop_cross_isa_straightline =
  QCheck.Test.make ~count:100 ~name:"random straight-line programs agree across ISAs"
    QCheck.(pair (int_range 0 1000000) (int_range 3 12))
    (fun (seed, len) ->
      let rng = Hipstr_util.Rng.create seed in
      let instrs =
        List.init len (fun _ ->
            let r1 = 1 + Hipstr_util.Rng.int rng 4 in
            let r2 = 1 + Hipstr_util.Rng.int rng 4 in
            match Hipstr_util.Rng.int rng 3 with
            | 0 -> Mov (Reg r1, Imm (Hipstr_util.Rng.int rng 1000 - 500))
            | 1 -> Binop (all_binops.(Hipstr_util.Rng.int rng 11), Reg r1, Reg r2)
            | _ -> Binop (all_binops.(Hipstr_util.Rng.int rng 11), Reg r1, Imm (1 + Hipstr_util.Rng.int rng 31)))
      in
      let tail =
        [ Mov (Reg 4, Reg 1); Mov (Reg 0, Imm 4); Mov (Reg 1, Reg 4); Syscall;
          Mov (Reg 0, Imm 1); Mov (Reg 1, Imm 0); Syscall ]
      in
      let run which =
        let m = Machine.create ~active:which () in
        let base = Layout.code_base which in
        assemble which base (instrs @ tail) (Machine.mem m);
        Machine.boot m ~entry:base;
        match Machine.run m ~fuel:200 with
        | Some (Exec.Exit 0) -> Hipstr_machine.Sys.output (Machine.os m)
        | _ -> failwith "run failed"
      in
      run Desc.Cisc = run Desc.Risc)

let () =
  Alcotest.run "semantics"
    [
      ( "alu",
        [
          QCheck_alcotest.to_alcotest (prop_binop Desc.Cisc "cisc binops vs reference");
          QCheck_alcotest.to_alcotest (prop_binop Desc.Risc "risc binops vs reference");
          Alcotest.test_case "cisc signed division edges" `Quick (test_division_edges Desc.Cisc);
          Alcotest.test_case "risc signed division edges" `Quick (test_division_edges Desc.Risc);
        ] );
      ( "conditions",
        [
          QCheck_alcotest.to_alcotest (prop_cond Desc.Cisc "cisc conditions vs reference");
          QCheck_alcotest.to_alcotest (prop_cond Desc.Risc "risc conditions vs reference");
        ] );
      ("cross-isa", [ QCheck_alcotest.to_alcotest prop_cross_isa_straightline ]);
    ]
