(* Encoder/decoder round-trip tests for both ISAs, the encoding
   properties the security evaluation depends on (one-byte CISC ret,
   RISC alignment), and the contract of the ISA table every other
   layer dispatches through. *)

module Minstr = Hipstr_isa.Minstr
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Wire = Hipstr_util.Wire
open Minstr

let reader_of_string ?(at = 0) s i =
  if i - at < 0 || i - at >= String.length s then -1 else Char.code s.[i - at]

let roundtrip_check which ins =
  let name = Isa.name which in
  let at = 0x1000 in
  let bytes = Isa.encode which ~at ins in
  Alcotest.(check int)
    (name ^ " length agrees")
    (String.length bytes) (Isa.length which ins);
  if String.length bytes mod (Isa.desc which).align <> 0 then
    Alcotest.failf "%s: misaligned length %d" name (String.length bytes);
  match Isa.decode which ~read:(reader_of_string ~at bytes) at with
  | None -> Alcotest.failf "%s: failed to decode %s" name (to_string ~reg_name:string_of_int ins)
  | Some (ins', len) ->
    Alcotest.(check int) (name ^ " decode length") (String.length bytes) len;
    if ins <> ins' then
      Alcotest.failf "%s: roundtrip mismatch: %s vs %s" name
        (to_string ~reg_name:string_of_int ins)
        (to_string ~reg_name:string_of_int ins')

let cisc_samples =
  [
    Mov (Reg 0, Reg 3);
    Mov (Reg 2, Imm 123456);
    Mov (Reg 1, Imm (-7));
    Mov (Reg 4, Mem { base = 7; disp = 48 });
    Mov (Mem { base = 7; disp = -4 }, Reg 5);
    Mov (Mem { base = 6; disp = 0 }, Imm 99);
    Lea (3, 7, 1024);
    Binop (Add, Reg 0, Reg 1);
    Binop (Sub, Reg 2, Imm 4);
    Binop (Mul, Reg 3, Mem { base = 7; disp = 8 });
    Binop (Xor, Mem { base = 7; disp = 16 }, Reg 2);
    Binop (Shl, Mem { base = 7; disp = 20 }, Imm 3);
    Binop (Divs, Reg 1, Reg 2);
    Binop (Rems, Reg 1, Imm 10);
    Binop (Sar, Reg 4, Imm 2);
    Cmp (Reg 0, Reg 1);
    Cmp (Reg 0, Imm 5);
    Cmp (Reg 0, Mem { base = 7; disp = 4 });
    Cmp (Mem { base = 7; disp = 4 }, Imm 9);
    Cmp (Mem { base = 7; disp = 4 }, Reg 3);
    Push (Reg 6);
    Push (Imm 0xC3C3);
    Push (Mem { base = 7; disp = 12 });
    Pop (Reg 2);
    Pop (Mem { base = 7; disp = 36 });
    Jmp 0x2000;
    Jcc (Eq, 0x2010);
    Jcc (Ult, 0x900);
    Jmpr (Reg 3);
    Jmpr (Mem { base = 7; disp = 0 });
    Call 0x3000;
    Callr (Reg 1);
    Callr (Mem { base = 7; disp = 8 });
    Ret;
    Syscall;
    Nop;
    Trap 0x1234;
    Callrat { target = 0x800000; src_ret = 0x10040 };
    Retrat (Reg 6);
    Retrat (Mem { base = 7; disp = 0x80C });
  ]

let risc_samples =
  [
    Mov (Reg 0, Reg 15);
    Mov (Reg 2, Imm 100);
    Mov (Reg 2, Imm 123456);
    Mov (Reg 2, Imm (-40000));
    Mov (Reg 4, Mem { base = 13; disp = 48 });
    Mov (Reg 4, Mem { base = 13; disp = 70000 });
    Mov (Mem { base = 13; disp = -4 }, Reg 5);
    Lea (3, 13, 1024);
    Lea (3, 13, 100000);
    Binop (Add, Reg 0, Reg 1);
    Binop (Sub, Reg 2, Imm 4);
    Binop (Mul, Reg 3, Imm 1000000);
    Cmp (Reg 0, Reg 1);
    Cmp (Reg 0, Imm 500000);
    Push (Reg 6);
    Pop (Reg 2);
    Jmp 0x120000;
    Jcc (Ne, 0x120010);
    Jmpr (Reg 3);
    Call 0x130000;
    Callr (Reg 1);
    Retr 14;
    Syscall;
    Nop;
    Trap 0x1234;
    Callrat { target = 0x1800000; src_ret = 0x110040 };
    Retrat (Reg 12);
  ]

let test_cisc_roundtrip () = List.iter (roundtrip_check Desc.Cisc) cisc_samples
let test_risc_roundtrip () = List.iter (roundtrip_check Desc.Risc) risc_samples

let test_cisc_ret_is_one_byte () =
  Alcotest.(check int) "ret length" 1 (Isa.length Desc.Cisc Ret);
  Alcotest.(check string) "ret encoding" "\xc3" (Isa.encode Desc.Cisc ~at:0 Ret)

let test_cisc_rejects_bad_regs () =
  (* A mod/reg byte with a nibble >= 8 must not decode: this is what
     makes some unaligned byte strings invalid. *)
  let bad = "\x01\x9f" in
  Alcotest.(check bool) "bad reg rejected" true (Isa.decode Desc.Cisc ~read:(reader_of_string bad) 0 = None)

let test_cisc_unencodable () =
  Alcotest.(check_raises) "mov mem,mem" (Invalid_argument "cisc: bad mov operands") (fun () ->
      ignore (Isa.encode Desc.Cisc ~at:0 (Mov (Mem { base = 0; disp = 0 }, Mem { base = 1; disp = 0 }))));
  Alcotest.(check_raises) "retr" (Invalid_argument "cisc: retr is RISC-only") (fun () ->
      ignore (Isa.encode Desc.Cisc ~at:0 (Retr 14)))

let test_risc_encodable_predicate () =
  Alcotest.(check bool) "alu mem operand" false (Isa.encodable Desc.Risc (Binop (Add, Reg 0, Mem { base = 13; disp = 0 })));
  Alcotest.(check bool) "mem-to-mem mov" false (Isa.encodable Desc.Risc (Mov (Mem { base = 13; disp = 0 }, Mem { base = 13; disp = 4 })));
  Alcotest.(check bool) "push imm" false (Isa.encodable Desc.Risc (Push (Imm 1)));
  Alcotest.(check bool) "plain ret" false (Isa.encodable Desc.Risc Ret);
  Alcotest.(check bool) "ldr" true (Isa.encodable Desc.Risc (Mov (Reg 1, Mem { base = 13; disp = 8 })))

let test_risc_all_lengths_word_multiple () =
  List.iter
    (fun i ->
      let l = Isa.length Desc.Risc i in
      if l mod 4 <> 0 then Alcotest.failf "length %d not word multiple" l)
    risc_samples

let test_unintentional_gadget_exists () =
  (* Classic x86 phenomenon: decoding inside an immediate yields a
     valid instruction stream ending in ret. Encode mov r2, 0xC3 and
     decode at the offset of the 0xC3 byte. *)
  let bytes = Isa.encode Desc.Cisc ~at:0 (Mov (Reg 2, Imm 0xC3)) in
  let idx = String.index bytes '\xc3' in
  match Isa.decode Desc.Cisc ~read:(reader_of_string bytes) idx with
  | Some (Ret, 1) -> ()
  | _ -> Alcotest.fail "expected unintentional ret inside immediate"

let test_minstr_helpers () =
  Alcotest.(check bool) "ret is return" true (is_return Ret);
  Alcotest.(check bool) "retrat is return" true (is_return (Retrat (Reg 0)));
  Alcotest.(check bool) "jcc is control" true (is_control (Jcc (Eq, 0)));
  Alcotest.(check bool) "mov not control" false (is_control (Mov (Reg 0, Reg 1)));
  Alcotest.(check bool) "syscall not control" false (is_control Syscall);
  Alcotest.(check int) "negate involutive" 0
    (List.length
       (List.filter
          (fun c -> negate_cond (negate_cond c) <> c)
          (Array.to_list all_conds)))

(* Decoder locality: a successful decode reads only the bytes of the
   instruction it returns, offsets [0 .. len-1] from its start. A
   decoded block's guard rests on this (Decode_cache.stale and
   keepable): a block of successful decodes depends on its own bytes
   alone, so a write just past it leaves it fresh, and the PSR VM keeps
   it across a code-cache flush even where the 16-byte decode window
   runs past its unit's last byte into whatever lies beyond.
   Checked at every offset of a fixed-seed random buffer and on every
   form the encoder emits, both times with foreign bytes on either
   side of the decode point. *)
let check_local which buf at =
  let name = Isa.name which in
  let lo = ref max_int and hi = ref min_int in
  let read i =
    if i < !lo then lo := i;
    if i > !hi then hi := i;
    if i < 0 || i >= Bytes.length buf then -1 else Char.code (Bytes.get buf i)
  in
  match Isa.decode which ~read at with
  | None -> None
  | Some (ins, len) ->
    if !lo < at || !hi > at + len - 1 then
      Alcotest.failf "%s: decoding %s (%d bytes) at offset %d read offsets %d..%d" name
        (to_string ~reg_name:string_of_int ins)
        len at (!lo - at) (!hi - at);
    Some len

let random_bytes n =
  let st = Random.State.make [| 0x5eed |] in
  Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Every instruction shape over a few registers, and immediates and
   displacements on each side of the narrow/wide boundaries; the
   caller keeps what its encoder accepts. *)
let encoder_forms ~regs ~bases =
  let imms =
    List.map (fun k -> Imm k) [ 0; 1; -1; 127; -128; 32767; -32768; 32768; 123456; -40000 ]
  in
  let mems =
    List.concat_map
      (fun base -> List.map (fun disp -> Mem { base; disp }) [ 0; 4; -4; 0x80C; 70000; -70000 ])
      bases
  in
  let ops = List.map (fun r -> Reg r) regs @ imms @ mems in
  let pairs f = List.concat_map (fun d -> List.map (fun s -> f d s) ops) ops in
  let targets = [ 0; 0x2000; 0x120010; 0x1800000 ] in
  pairs (fun d s -> Mov (d, s))
  @ List.concat_map (fun b -> pairs (fun d s -> Binop (b, d, s))) (Array.to_list all_binops)
  @ pairs (fun a b -> Cmp (a, b))
  @ List.concat_map (fun x -> [ Push x; Pop x; Jmpr x; Callr x; Retrat x ]) ops
  @ List.concat_map
      (fun r ->
        List.concat_map (fun b -> List.map (fun k -> Lea (r, b, k)) [ 0; -4; 1024; 100000 ]) bases)
      regs
  @ List.concat_map
      (fun t ->
        Jmp t :: Call t :: Trap t :: List.map (fun c -> Jcc (c, t)) (Array.to_list all_conds))
      targets
  @ List.map (fun r -> Retr r) regs
  @ [ Ret; Syscall; Nop; Callrat { target = 0x800000; src_ret = 0x10040 } ]

let test_decoder_locality which forms () =
  let name = Isa.name which in
  let buf = random_bytes 4096 in
  let decoded = ref 0 in
  for at = 0 to Bytes.length buf - 1 do
    if check_local which buf at <> None then incr decoded
  done;
  if !decoded = 0 then Alcotest.failf "%s: no offset of the random buffer decoded" name;
  let at = 0x800 in
  let emitted = ref 0 in
  List.iter
    (fun ins ->
      match Isa.encode which ~at ins with
      | exception Invalid_argument _ -> ()
      | bytes ->
        incr emitted;
        let buf = random_bytes 4096 in
        Bytes.blit_string bytes 0 buf at (String.length bytes);
        match check_local which buf at with
        | Some len when len = String.length bytes -> ()
        | _ ->
          Alcotest.failf "%s: %s does not decode back at its %d-byte length" name
            (to_string ~reg_name:string_of_int ins)
            (String.length bytes))
    forms;
  if !emitted < 500 then Alcotest.failf "%s: only %d encoder forms exercised" name !emitted

let prop_cisc_decode_total =
  (* Decoding arbitrary bytes never crashes and either fails or
     consumes a positive length. *)
  QCheck.Test.make ~count:2000 ~name:"cisc decode total"
    QCheck.(string_of_size (QCheck.Gen.return 12))
    (fun s ->
      if String.length s < 12 then true
      else
        match Isa.decode Desc.Cisc ~read:(reader_of_string s) 0 with
        | None -> true
        | Some (_, len) -> len > 0 && len <= 10)

let prop_risc_decode_total =
  QCheck.Test.make ~count:2000 ~name:"risc decode total"
    QCheck.(string_of_size (QCheck.Gen.return 12))
    (fun s ->
      if String.length s < 12 then true
      else
        match Isa.decode Desc.Risc ~read:(reader_of_string s) 0 with
        | None -> true
        | Some (_, len) -> len = 4 || len = 8 || len = 12)

(* The table's contract. Every constructor, with every operand kind
   it takes (a register, a 16-bit and a 32-bit immediate, a memory
   operand with a 16-bit and a 32-bit displacement), on both ISAs:
   [encodable] holds exactly when [encode] does not raise, and then
   [length] is the encoded length. The match over the prototype has
   no wildcard, so a new constructor does not compile until it is
   enumerated here. *)
let operand_kinds =
  [ Reg 1; Imm 0x1234; Imm 0x12345678; Mem { base = 2; disp = 8 }; Mem { base = 2; disp = 0x12345 } ]

let shapes (proto : Minstr.t) =
  let ops = operand_kinds in
  let pairs f = List.concat_map (fun d -> List.map (f d) ops) ops in
  let ks = [ 8; 0x12345678 ] in
  match proto with
  | Mov _ -> pairs (fun d s -> Mov (d, s))
  | Lea _ -> List.map (fun k -> Lea (1, 2, k)) ks
  | Binop _ ->
    List.concat_map (fun b -> pairs (fun d s -> Binop (b, d, s))) (Array.to_list all_binops)
  | Cmp _ -> pairs (fun a b -> Cmp (a, b))
  | Push _ -> List.map (fun x -> Push x) ops
  | Pop _ -> List.map (fun x -> Pop x) ops
  | Jmp _ -> List.map (fun t -> Jmp t) ks
  | Jcc _ -> List.concat_map (fun c -> List.map (fun t -> Jcc (c, t)) ks) (Array.to_list all_conds)
  | Jmpr _ -> List.map (fun x -> Jmpr x) ops
  | Call _ -> List.map (fun t -> Call t) ks
  | Callr _ -> List.map (fun x -> Callr x) ops
  | Ret -> [ Ret ]
  | Retr _ -> [ Retr 1 ]
  | Syscall -> [ Syscall ]
  | Nop -> [ Nop ]
  | Trap _ -> List.map (fun t -> Trap t) ks
  | Callrat _ -> List.map (fun t -> Callrat { target = t; src_ret = 0x10040 }) ks
  | Retrat _ -> List.map (fun x -> Retrat x) ops

let prototypes =
  [ Mov (Reg 0, Reg 0); Lea (0, 0, 0); Binop (Add, Reg 0, Reg 0); Cmp (Reg 0, Reg 0); Push (Reg 0);
    Pop (Reg 0); Jmp 0; Jcc (Eq, 0); Jmpr (Reg 0); Call 0; Callr (Reg 0); Ret; Retr 0; Syscall; Nop;
    Trap 0; Callrat { target = 0; src_ret = 0 }; Retrat (Reg 0) ]

let test_table_contract () =
  List.iter
    (fun which ->
      let name = Isa.name which in
      let encoded = ref 0 and refused = ref 0 in
      List.iter
        (fun i ->
          let shown = to_string ~reg_name:string_of_int i in
          match Isa.encode which ~at:0 i with
          | bytes ->
            incr encoded;
            if not (Isa.encodable which i) then
              Alcotest.failf "%s: %s encodes but is not encodable" name shown;
            Alcotest.(check int) (name ^ " length of " ^ shown) (String.length bytes)
              (Isa.length which i)
          | exception Invalid_argument _ ->
            incr refused;
            if Isa.encodable which i then
              Alcotest.failf "%s: %s is encodable but the encoder refuses it" name shown)
        (List.concat_map shapes prototypes);
      if !encoded = 0 || !refused = 0 then
        Alcotest.failf "%s: %d shapes encoded, %d refused" name !encoded !refused;
      Alcotest.(check bool) (name ^ " name round-trips") true (Isa.of_name name = Some which);
      Alcotest.(check bool) (name ^ " tag round-trips") true (Isa.of_tag (Isa.tag which) = which))
    [ Desc.Cisc; Desc.Risc ];
  Alcotest.(check bool) "x86 alias" true (Isa.of_name "x86" = Some Desc.Cisc);
  Alcotest.(check bool) "arm alias" true (Isa.of_name "ARM" = Some Desc.Risc);
  Alcotest.(check bool) "unknown name" true (Isa.of_name "mips" = None);
  Alcotest.check_raises "unknown tag" (Wire.Corrupt "unknown ISA tag 2") (fun () ->
      ignore (Isa.of_tag 2))

let () =
  Alcotest.run "isa"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "cisc" `Quick test_cisc_roundtrip;
          Alcotest.test_case "risc" `Quick test_risc_roundtrip;
        ] );
      ( "encoding-properties",
        [
          Alcotest.test_case "cisc one-byte ret" `Quick test_cisc_ret_is_one_byte;
          Alcotest.test_case "cisc rejects bad registers" `Quick test_cisc_rejects_bad_regs;
          Alcotest.test_case "cisc unencodable shapes" `Quick test_cisc_unencodable;
          Alcotest.test_case "risc encodable predicate" `Quick test_risc_encodable_predicate;
          Alcotest.test_case "risc word lengths" `Quick test_risc_all_lengths_word_multiple;
          Alcotest.test_case "unintentional gadget" `Quick test_unintentional_gadget_exists;
          Alcotest.test_case "minstr helpers" `Quick test_minstr_helpers;
          Alcotest.test_case "table contract" `Quick test_table_contract;
          Alcotest.test_case "cisc decoder locality" `Quick
            (test_decoder_locality Desc.Cisc (encoder_forms ~regs:[ 0; 3; 7 ] ~bases:[ 7; 2 ]));
          Alcotest.test_case "risc decoder locality" `Quick
            (test_decoder_locality Desc.Risc (encoder_forms ~regs:[ 0; 12; 15 ] ~bases:[ 13; 1 ]));
          QCheck_alcotest.to_alcotest prop_cisc_decode_total;
          QCheck_alcotest.to_alcotest prop_risc_decode_total;
        ] );
    ]
