(* Machine substrate tests: memory, caches, branch predictor, RAT,
   and hand-assembled programs run through the interpreter. *)

module Mem = Hipstr_machine.Mem
module Cache = Hipstr_machine.Cache
module Bpred = Hipstr_machine.Bpred
module Rat = Hipstr_machine.Rat
module Layout = Hipstr_machine.Layout
module Machine = Hipstr_machine.Machine
module Exec = Hipstr_machine.Exec
module Core_desc = Hipstr_machine.Core_desc
module Minstr = Hipstr_isa.Minstr
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Rng = Hipstr_util.Rng
open Minstr

let test_mem_rw () =
  let m = Mem.create 4096 in
  Mem.write32 m 100 0x12345678;
  Alcotest.(check int) "read32" 0x12345678 (Mem.read32 m 100);
  Alcotest.(check int) "byte order little-endian" 0x78 (Mem.read8 m 100);
  Mem.write32 m 200 (-1);
  Alcotest.(check int) "negative" (-1) (Mem.read32 m 200);
  Mem.write8 m 0 0x1FF;
  Alcotest.(check int) "byte masked" 0xFF (Mem.read8 m 0)

let test_mem_fault () =
  let m = Mem.create 64 in
  Alcotest.check_raises "oob read" (Mem.Fault 64) (fun () -> ignore (Mem.read8 m 64));
  Alcotest.check_raises "oob write32 straddle" (Mem.Fault 65) (fun () -> Mem.write32 m 62 0);
  Alcotest.check_raises "negative" (Mem.Fault (-1)) (fun () -> ignore (Mem.read8 m (-1)))

let test_mem_strings () =
  let m = Mem.create 256 in
  Mem.blit_string m 10 "hello\000";
  Alcotest.(check string) "cstring" "hello" (Mem.read_cstring m 10);
  Alcotest.(check string) "substring" "ell" (Mem.read_string m 11 3)

let test_mem_bad_span () =
  (* regression: negative or end-crossing string spans must refuse up
     front rather than fault mid-copy or index a negative length *)
  let m = Mem.create 64 in
  Alcotest.check_raises "negative length" (Mem.Bad_span (10, -1)) (fun () ->
      ignore (Mem.read_string m 10 (-1)));
  Alcotest.check_raises "read crosses the end" (Mem.Bad_span (60, 8)) (fun () ->
      ignore (Mem.read_string m 60 8));
  Alcotest.check_raises "negative address" (Mem.Bad_span (-4, 2)) (fun () ->
      ignore (Mem.read_string m (-4) 2));
  Alcotest.check_raises "blit crosses the end" (Mem.Bad_span (62, 5)) (fun () ->
      Mem.blit_string m 62 "hello");
  Alcotest.check_raises "write crosses the end" (Mem.Bad_span (62, 3)) (fun () ->
      Mem.write_string m 62 "hey");
  (* zero-length spans at any in-bounds address are fine, including
     one-past-the-end, and a refused blit must not have written *)
  Alcotest.(check string) "zero-length read ok" "" (Mem.read_string m 64 0);
  Mem.blit_string m 62 "";
  Alcotest.(check int) "refused blit left memory untouched" 0 (Mem.read8 m 62)

(* The word accessors against a definition that shares none of their
   code: a load is the sign-extended little-endian composition of four
   byte loads, and a store leaves the value's low four bytes, low byte
   first, and touches no other byte. Pages 0 and 1 stay the shared
   zero page, pages 2 and 3 are written; every offset of page 0 and of
   pages 2 and 3 is loaded and stored at (words at a page's last three
   offsets straddle into the next page), with values at the sign edges
   and random ones. The last words of memory load and store, and a
   word past the end faults at [a] when [a] is outside, else at
   [a + 3]. *)
let test_mem_word_accessors () =
  let page = 4096 in
  let size = (5 * page) + 6 in
  let m = Mem.create size in
  let compose a =
    let u =
      Mem.read8 m a
      + (Mem.read8 m (a + 1) * 0x100)
      + (Mem.read8 m (a + 2) * 0x10000)
      + (Mem.read8 m (a + 3) * 0x1000000)
    in
    if u >= 0x80000000 then u - 0x100000000 else u
  in
  let check_load a =
    let got = Mem.read32 m a and want = compose a in
    if got <> want then Alcotest.failf "read32 0x%x = %d, bytes compose %d" a got want
  in
  let g = Rng.create 41 in
  for a = 2 * page to (4 * page) - 1 do
    Mem.write8 m a (Rng.int g 256)
  done;
  for a = 0 to page - 1 do
    check_load a
  done;
  for a = 2 * page to (4 * page) - 1 do
    check_load a
  done;
  let values =
    [ 0; 1; -1; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; -0x80000000; 0x1_2345_6789 ]
    @ List.init 6 (fun _ -> (Rng.bits32 g lsl 8) lxor Rng.bits32 g)
  in
  let check_store a v =
    let before = Mem.read8 m (a - 1) and after = if a + 4 < size then Mem.read8 m (a + 4) else 0 in
    Mem.write32 m a v;
    for i = 0 to 3 do
      let got = Mem.read8 m (a + i) and want = (v lsr (8 * i)) land 0xFF in
      if got <> want then
        Alcotest.failf "write32 0x%x %d: byte %d is 0x%x, want 0x%x" a v i got want
    done;
    if Mem.read8 m (a - 1) <> before || (a + 4 < size && Mem.read8 m (a + 4) <> after) then
      Alcotest.failf "write32 0x%x %d wrote outside its word" a v;
    check_load a;
    let sv = v land 0xFFFFFFFF in
    let sv = if sv >= 0x80000000 then sv - 0x100000000 else sv in
    Alcotest.(check int) (Printf.sprintf "read32 after write32 0x%x" a) sv (Mem.read32 m a)
  in
  List.iter
    (fun v ->
      for a = 2 * page to (4 * page) - 1 do
        check_store a v
      done;
      for a = size - 8 to size - 4 do
        check_store a v
      done)
    values;
  for a = 0 to page - 1 do
    Alcotest.(check int) "the zero page is unwritten" 0 (Mem.read32 m a)
  done;
  List.iter
    (fun a ->
      let at = if a < 0 || a >= size then a else a + 3 in
      Alcotest.check_raises (Printf.sprintf "read32 0x%x" a) (Mem.Fault at) (fun () ->
          ignore (Mem.read32 m a));
      Alcotest.check_raises (Printf.sprintf "write32 0x%x" a) (Mem.Fault at) (fun () ->
          Mem.write32 m a 0))
    [ size - 3; size - 2; size - 1; size; size + 3; -1; -4; max_int - 1; max_int; min_int ]

(* The code-region write hook against the regions' bounds: a 4-byte
   store bumps the generation of exactly the regions its bytes land
   in, and dirties exactly the 64-byte stamp pages it writes in each
   (its bytes are clamped to the region before [Mem.unwritten] reads
   them; a span leaving the region reads as written whatever the
   stamps say). Every region gets stores at its first and last word,
   straddling each edge, and in the 64 KiB granules just outside it;
   data, heap and stack stores bump nothing. Run on the standard
   layout and on regions that start and end inside a granule, two of
   them adjacent. *)
let check_write_hook ~label ~size ~regions ~plain =
  let m = Mem.create size in
  let rs = List.map (fun (lo, hi) -> (lo, hi, Mem.watch m ~lo ~hi)) regions in
  let store a =
    if a >= 0 && a <= size - 4 then begin
      let gens = List.map (fun (_, _, r) -> Mem.generation r) rs in
      Mem.write32 m a 0x5A5A5A5A;
      List.iter2
        (fun (lo, hi, r) g0 ->
          let g1 = Mem.generation r in
          let lands = a < hi && a + 4 > lo in
          let fail what =
            Alcotest.failf "%s: store at 0x%x, region [0x%x, 0x%x): %s" label a lo hi what
          in
          if lands then begin
            if g1 <> g0 + 1 then fail (Printf.sprintf "generation %d -> %d" g0 g1);
            if Mem.unwritten r ~lo:(max a lo) ~hi:(min (a + 4) hi) ~since:g0 then
              fail "its bytes read unwritten";
            let dirty_lo = max lo (a land lnot 63) and dirty_hi = min hi (((a + 3) lor 63) + 1) in
            if
              not
                (Mem.unwritten r ~lo ~hi:dirty_lo ~since:g0
                && Mem.unwritten r ~lo:dirty_hi ~hi ~since:g0)
            then fail "a stamp page it did not write reads written"
          end
          else begin
            if g1 <> g0 then fail (Printf.sprintf "not in it, generation %d -> %d" g0 g1);
            if not (Mem.unwritten r ~lo ~hi ~since:g0) then fail "not in it, stamps moved"
          end;
          if (a < lo || a + 4 > hi) && Mem.unwritten r ~lo:a ~hi:(a + 4) ~since:g1 then
            fail "its span leaves the region but reads unwritten")
        rs gens
    end
  in
  List.iter
    (fun (lo, hi) ->
      List.iter store
        [
          lo; hi - 4; lo - 1; lo - 3; hi - 1; hi - 3; lo - 4; hi;
          (lo land lnot 0xFFFF) - 4; ((hi - 1) lor 0xFFFF) + 1;
        ])
    regions;
  List.iter store plain

let test_mem_write_hook () =
  check_write_hook ~label:"standard layout" ~size:Layout.mem_size
    ~regions:
      [
        (Layout.cisc_code_base, Layout.cisc_code_base + Layout.code_region_size);
        (Layout.risc_code_base, Layout.risc_code_base + Layout.code_region_size);
        (Layout.cisc_cache_base, Layout.cisc_cache_base + Layout.cache_region_size);
        (Layout.risc_cache_base, Layout.risc_cache_base + Layout.cache_region_size);
      ]
    ~plain:
      [
        Layout.data_base; Layout.data_base + Layout.data_size - 4; Layout.heap_base;
        Layout.heap_limit - 4; Layout.stack_top - 4; Layout.stack_top - 0x10000;
      ];
  check_write_hook ~label:"unaligned regions" ~size:0x100000
    ~regions:[ (0x10010, 0x2FFF2); (0x2FFF2, 0x30101); (0x50003, 0x50100); (0xFFF00, 0x100000) ]
    ~plain:[ 0; 0x40000; 0x8FFFC; 0xFFEFC ]

let test_cache_behavior () =
  let c = Cache.create ~line:64 ~size_kb:1 ~assoc:2 ~miss_penalty:10 () in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "second hits" true (Cache.access c 32);
  Alcotest.(check bool) "different line misses" false (Cache.access c 64);
  Alcotest.(check int) "stats" 2 (Cache.misses c);
  (* 1 KB, 2-way, 64B lines -> 8 sets. Address stride of 512 maps to
     the same set; three distinct lines exceed the ways. *)
  let c2 = Cache.create ~line:64 ~size_kb:1 ~assoc:2 ~miss_penalty:10 () in
  ignore (Cache.access c2 0);
  ignore (Cache.access c2 512);
  ignore (Cache.access c2 1024);
  Alcotest.(check bool) "evicted LRU way" false (Cache.access c2 0);
  Cache.flush c2;
  Cache.reset_stats c2;
  Alcotest.(check bool) "flush invalidates" false (Cache.access c2 512)

let test_bpred_learns_loop () =
  let b = Bpred.create () in
  (* A branch taken 100 times: after warmup it should predict well. *)
  for _ = 1 to 100 do
    ignore (Bpred.predict_cond b ~pc:0x400 ~taken:true)
  done;
  let before = Bpred.mispredicts b in
  for _ = 1 to 100 do
    ignore (Bpred.predict_cond b ~pc:0x400 ~taken:true)
  done;
  Alcotest.(check int) "steady state no mispredicts" before (Bpred.mispredicts b)

let test_bpred_ras () =
  let b = Bpred.create () in
  Bpred.push_ras b 0x111;
  Bpred.push_ras b 0x222;
  Alcotest.(check bool) "inner return predicted" true (Bpred.predict_return b ~target:0x222);
  Alcotest.(check bool) "outer return predicted" true (Bpred.predict_return b ~target:0x111);
  Alcotest.(check bool) "empty RAS mispredicts" false (Bpred.predict_return b ~target:0x111)

(* Reference models for the two timing structures every retired
   instruction touches. The cache model keeps each set as a list of
   lines, most recent first, at most [assoc] long, and each line's
   last-access time. A stream of steps touches lines (at an offset
   inside each) or flushes; after every access the hit, the resident
   lines of the set, the stamp of every resident line (the clock at
   its last access), the clock and the counts, read back through
   [Cache.save], must equal the model's, so a wrong victim shows on
   the miss that picks it. *)
module Wire = Hipstr_util.Wire

let cache_tags c =
  let w = Wire.writer () in
  Cache.save w c;
  let r = Wire.reader (Wire.contents w) in
  Wire.expect_tag r "CACHE";
  Wire.r_int_array r

(* The tags, LRU stamps, clock and counts an image of [c] records. *)
let cache_state c =
  let n = Array.length (cache_tags c) in
  let w = Wire.writer () in
  Cache.save w c;
  let io = Wire.section (Wire.reading (Wire.reader (Wire.contents w))) "CACHE" in
  let tags = Array.make n 0 and stamps = Array.make n 0 in
  Wire.into io "tags" tags;
  Wire.into io "stamps" stamps;
  let clock = Wire.field io "clock" Wire.C.int 0 in
  let hits = Wire.field io "hits" Wire.C.int 0 in
  let misses = Wire.field io "misses" Wire.C.int 0 in
  (tags, stamps, clock, hits, misses)

(* [steps nsets] is the stream: [Some (l, off)] touches line [l] at
   byte [off], [None] flushes. *)
let check_cache_against_model ~label ~line ~size_kb ~assoc steps =
  let c = Cache.create ~line ~size_kb ~assoc ~miss_penalty:10 () in
  let nsets = Array.length (cache_tags c) / assoc in
  let sets = Array.make nsets [] and last = Hashtbl.create 64 in
  let clock = ref 0 and hits = ref 0 and misses = ref 0 in
  let access l off =
    incr clock;
    let s = l mod nsets in
    let hit = List.mem l sets.(s) in
    sets.(s) <-
      (l
      ::
      (if hit then List.filter (fun x -> x <> l) sets.(s)
       else List.filteri (fun i _ -> i < assoc - 1) sets.(s)));
    Hashtbl.replace last l !clock;
    if hit then incr hits else incr misses;
    let got = Cache.access c ((l * line) + off) in
    if got <> hit then
      Alcotest.failf "%s: access %d, line %d: cache says hit=%b, model says %b" label !clock l got hit;
    let tags, stamps, clk, h, m = cache_state c in
    let resident = Array.sub tags (s * assoc) assoc |> Array.to_list |> List.filter (fun x -> x >= 0) in
    if List.sort compare resident <> List.sort compare sets.(s) then
      Alcotest.failf "%s: access %d, set %d holds [%s], model holds [%s]" label !clock s
        (String.concat " " (List.map string_of_int resident))
        (String.concat " " (List.map string_of_int sets.(s)));
    if clk <> !clock || h <> !hits || m <> !misses then
      Alcotest.failf "%s: access %d: clock %d, hits %d, misses %d; model %d, %d, %d" label !clock clk h
        m !clock !hits !misses;
    Array.iteri
      (fun i t ->
        if t >= 0 && stamps.(i) <> Hashtbl.find last t then
          Alcotest.failf "%s: access %d: line %d stamped %d, last touched at %d" label !clock t
            stamps.(i) (Hashtbl.find last t))
      tags
  in
  List.iter
    (function
      | Some (l, off) -> access l off
      | None ->
        Cache.flush c;
        Array.fill sets 0 nsets [])
    (steps nsets)

(* Random lines from a pool three times the cache's; a quarter of the
   steps repeat the previous line, so the first memo entry serves
   them, and an occasional flush clears the memo. *)
let random_steps ~line ~assoc ~seed nsets =
  let g = Rng.create seed in
  let pool = 3 * nsets * assoc and last = ref 0 and steps = ref [] in
  for _ = 1 to 3000 do
    if Rng.int g 500 = 0 then steps := None :: !steps;
    let l = if Rng.int g 4 = 0 then !last else Rng.int g pool in
    last := l;
    steps := Some (l, Rng.int g line) :: !steps
  done;
  List.rev !steps

(* Aimed at the second memo entry: lines A and B alternate, so the two
   entries hold them; then [assoc] newer lines of one of their sets
   evict it (B, or in a separate run A), and both are touched again,
   the evicted one first, which must miss however the entries
   moved. *)
let memo_steps ~assoc ~evict nsets =
  let a = 0 and b = 1 in
  let victim, other = if evict = 0 then (a, b) else (b, a) in
  let touch l = Some (l, 3) in
  List.concat (List.init 3 (fun _ -> [ touch a; touch b ]))
  @ List.init assoc (fun k -> touch (victim + ((k + 1) * nsets)))
  @ [ touch victim; touch other; touch victim; touch other ]

let test_cache_matches_lru_model () =
  let random ~line ~size_kb ~assoc ~seed =
    check_cache_against_model
      ~label:(Printf.sprintf "%d KiB, %d-way, %d-byte lines" size_kb assoc line)
      ~line ~size_kb ~assoc (random_steps ~line ~assoc ~seed)
  in
  random ~line:64 ~size_kb:1 ~assoc:1 ~seed:11;
  random ~line:64 ~size_kb:1 ~assoc:2 ~seed:12;
  random ~line:32 ~size_kb:1 ~assoc:4 ~seed:13;
  (* 48 lines in 24 and 12 sets: the set index takes [line mod nsets] *)
  random ~line:64 ~size_kb:3 ~assoc:2 ~seed:14;
  random ~line:64 ~size_kb:3 ~assoc:4 ~seed:15;
  List.iter
    (fun assoc ->
      List.iter
        (fun evict ->
          check_cache_against_model
            ~label:(Printf.sprintf "%d-way, evicting %s" assoc (if evict = 0 then "A" else "B"))
            ~line:64 ~size_kb:1 ~assoc (memo_steps ~assoc ~evict))
        [ 0; 1 ])
    [ 1; 2; 4 ]

(* One 2-bit saturating counter per table entry, starting weakly
   not-taken. 0x1400 shares 0x400's entry in the 4096-entry table.
   Each pc has its own bias, so counters sit at both saturation
   points and move through the middle. *)
let test_bpred_matches_counter_model () =
  let b = Bpred.create () in
  let g = Rng.create 29 in
  let pcs = [| 0x400; 0x404; 0x1400; 0x7ffc |] and bias = [| 90; 50; 15; 75 |] in
  let counters = Hashtbl.create 4 and mispredicts = ref 0 in
  for step = 1 to 4000 do
    let k = Rng.int g (Array.length pcs) in
    let pc = pcs.(k) and taken = Rng.int g 100 < bias.(k) in
    let i = pc land 4095 in
    let c = Option.value (Hashtbl.find_opt counters i) ~default:1 in
    let want = (c >= 2) = taken in
    Hashtbl.replace counters i (if taken then min 3 (c + 1) else max 0 (c - 1));
    if not want then incr mispredicts;
    let got = Bpred.predict_cond b ~pc ~taken in
    if got <> want then
      Alcotest.failf "step %d, pc 0x%x, taken=%b: predictor says correct=%b, model says %b" step pc
        taken got want
  done;
  Alcotest.(check int) "mispredicts" !mispredicts (Bpred.mispredicts b);
  Alcotest.(check int) "lookups" 4000 (Bpred.lookups b)

let test_rat_lru () =
  let r = Rat.create ~capacity:2 in
  Rat.insert r ~src:1 ~translated:101;
  Rat.insert r ~src:2 ~translated:102;
  Alcotest.(check int) "hit 1" 101 (Rat.find_translated r 1);
  Rat.insert r ~src:3 ~translated:103;
  (* 2 was least recently used (1 was just touched). *)
  Alcotest.(check int) "2 evicted" (-1) (Rat.find_translated r 2);
  Alcotest.(check int) "1 kept" 101 (Rat.find_translated r 1);
  Alcotest.(check int) "3 kept" 103 (Rat.find_translated r 3);
  Alcotest.(check int) "misses counted" 1 (Rat.misses r)

(* Hand-assemble a tiny program into memory and run it natively. *)
let assemble which base instrs mem =
  let at = ref base in
  List.iter
    (fun i ->
      let bytes = Isa.encode which ~at:!at i in
      Mem.blit_string mem !at bytes;
      at := !at + String.length bytes)
    instrs;
  !at

let run_asm which instrs ~fuel =
  let m = Machine.create ~active:which () in
  let base = Layout.code_base which in
  ignore (assemble which base instrs (Machine.mem m));
  Machine.boot m ~entry:base;
  let trap = Machine.run m ~fuel in
  (trap, m)

let test_exec_cisc_loop () =
  (* sum 1..10 into bx then print and exit *)
  let base = Layout.cisc_code_base in
  let l_loop = base + 12 in
  let instrs =
    [
      Mov (Reg 1, Imm 0) (* bx := 0 *);
      Mov (Reg 2, Imm 10) (* cx := 10 *);
      (* loop: *)
      Binop (Add, Reg 1, Reg 2);
      Binop (Sub, Reg 2, Imm 1);
      Cmp (Reg 2, Imm 0);
      Jcc (Gt, l_loop);
      (* print bx *)
      Mov (Reg 0, Imm 4);
      Syscall;
      Mov (Reg 0, Imm 1);
      Mov (Reg 1, Imm 0);
      Syscall;
    ]
  in
  let trap, m = run_asm Desc.Cisc instrs ~fuel:1000 in
  (match trap with
  | Some (Exec.Exit 0) -> ()
  | Some t -> Alcotest.failf "unexpected stop: %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "out of fuel");
  Alcotest.(check (list int)) "printed sum" [ 55 ] (Hipstr_machine.Sys.output (Machine.os m))

let test_exec_risc_loop () =
  let base = Layout.risc_code_base in
  (* mov r1,0 (4) ; mov r2,10 (4) ; loop at +8: add r1,r2 (4); sub r2,1 (4); cmp r2,0 (4); jgt loop (8) *)
  let l_loop = base + 8 in
  let instrs =
    [
      Mov (Reg 1, Imm 0);
      Mov (Reg 2, Imm 10);
      Binop (Add, Reg 1, Reg 2);
      Binop (Sub, Reg 2, Imm 1);
      Cmp (Reg 2, Imm 0);
      Jcc (Gt, l_loop);
      Mov (Reg 0, Imm 4);
      Syscall;
      Mov (Reg 0, Imm 1);
      Mov (Reg 1, Imm 0);
      Syscall;
    ]
  in
  let trap, m = run_asm Desc.Risc instrs ~fuel:1000 in
  (match trap with
  | Some (Exec.Exit 0) -> ()
  | Some t -> Alcotest.failf "unexpected stop: %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "out of fuel");
  Alcotest.(check (list int)) "printed sum" [ 55 ] (Hipstr_machine.Sys.output (Machine.os m))

let test_exec_bad_fetch_faults () =
  (* Jump to a byte that decodes on no path: 0x07 expects an
     immediate byte, and the following out-of-range read makes the
     fetch fail. Zeroed memory, by contrast, decodes (the dense
     x86-like opcode map), so use an address near the end of the
     address space. *)
  let m = Machine.create ~active:Desc.Cisc () in
  let base = Layout.cisc_code_base in
  ignore (assemble Desc.Cisc base [ Minstr.Jmp (Layout.mem_size - 1) ] (Machine.mem m));
  (* place an undecodable byte (an unused opcode) at the target *)
  Mem.write8 (Machine.mem m) (Layout.mem_size - 1) 0x02;
  (* 0x02 = mov r, imm32 but its operand byte + imm straddle the end
     of memory: the decoder's reads return -1 and decoding fails *)
  Machine.boot m ~entry:base;
  match Machine.run m ~fuel:10 with
  | Some (Exec.Fault (Exec.Bad_fetch _)) -> ()
  | Some t -> Alcotest.failf "expected bad fetch, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap"

let test_exec_execve_detected () =
  let instrs = [ Mov (Reg 0, Imm 11); Mov (Reg 1, Imm 0xdead); Syscall ] in
  let trap, m = run_asm Desc.Cisc instrs ~fuel:10 in
  (match trap with
  | Some Exec.Shell -> ()
  | Some t -> Alcotest.failf "expected shell, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap");
  match (Machine.os m).shell with
  | Some (a, _, _) -> Alcotest.(check int) "execve arg recorded" 0xdead a
  | None -> Alcotest.fail "shell not recorded"

let test_native_ret_to_sentinel_exits () =
  (* push sentinel happens in boot; a lone ret should exit with the
     value in the return register. *)
  let instrs = [ Mov (Reg 0, Imm 33); Ret ] in
  let trap, _ = run_asm Desc.Cisc instrs ~fuel:10 in
  match trap with
  | Some (Exec.Exit 33) -> ()
  | Some t -> Alcotest.failf "expected exit 33, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap"

let test_rat_mode_ret_traps () =
  (* With a RAT present, a return with no mapping must trap (the
     modified return macro-op). *)
  let m = Machine.create ~rat_capacity:(Some 64) ~active:Desc.Cisc () in
  let base = Layout.cisc_code_base in
  ignore (assemble Desc.Cisc base [ Push (Imm 0x4242); Ret ] (Machine.mem m));
  Machine.boot m ~entry:base;
  match Machine.run m ~fuel:10 with
  | Some (Exec.Rat_miss 0x4242) -> ()
  | Some t -> Alcotest.failf "expected rat miss, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap"

let test_callrat_inserts_mapping () =
  let m = Machine.create ~rat_capacity:(Some 64) ~active:Desc.Cisc () in
  let base = Layout.cisc_code_base in
  (* callrat jumps to a block that returns via retrat on the pushed
     source address. *)
  let target = base + 100 in
  ignore (assemble Desc.Cisc base [ Callrat { target; src_ret = 0x7777 } ] (Machine.mem m));
  (* the "translated callee": pop the source ret into bp and retrat *)
  ignore (assemble Desc.Cisc target [ Pop (Reg 6); Retrat (Reg 6) ] (Machine.mem m));
  (* continuation after callrat: exit 5 *)
  let cont = base + Isa.length Desc.Cisc (Callrat { target; src_ret = 0x7777 }) in
  ignore (assemble Desc.Cisc cont [ Mov (Reg 0, Imm 1); Mov (Reg 1, Imm 5); Syscall ] (Machine.mem m));
  Machine.boot m ~entry:base;
  match Machine.run m ~fuel:20 with
  | Some (Exec.Exit 5) -> ()
  | Some t -> Alcotest.failf "expected exit 5, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap"

let test_trap_stub () =
  let trap, _ = run_asm Desc.Cisc [ Nop; Trap 0xBEEF ] ~fuel:10 in
  match trap with
  | Some (Exec.Trap_stub 0xBEEF) -> ()
  | Some t -> Alcotest.failf "expected trap stub, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap"

let test_indirect_jump_into_cache_faults () =
  let target = Layout.cisc_cache_base + 64 in
  let instrs = [ Mov (Reg 1, Imm target); Jmpr (Reg 1) ] in
  let trap, _ = run_asm Desc.Cisc instrs ~fuel:10 in
  match trap with
  | Some (Exec.Fault (Exec.Cache_jump _)) -> ()
  | Some t -> Alcotest.failf "expected cache-jump fault, got %s" (Exec.string_of_trap t)
  | None -> Alcotest.fail "no trap"

let test_cycle_accounting () =
  let trap, m = run_asm Desc.Cisc [ Mov (Reg 0, Imm 1); Mov (Reg 1, Imm 0); Syscall ] ~fuel:10 in
  (match trap with Some (Exec.Exit 0) -> () | _ -> Alcotest.fail "bad run");
  Alcotest.(check bool) "cycles accumulated" true (Machine.cycles m > 0.);
  Alcotest.(check int) "instructions counted" 3 (Machine.instructions m);
  Alcotest.(check bool) "seconds positive" true (Machine.seconds m > 0.)

let test_core_descs_match_table1 () =
  Alcotest.(check int) "arm rob" 20 Core_desc.arm.rob_size;
  Alcotest.(check int) "x86 rob" 128 Core_desc.x86.rob_size;
  Alcotest.(check (float 1e-9)) "arm freq" 2.0 Core_desc.arm.freq_ghz;
  Alcotest.(check (float 1e-9)) "x86 freq" 3.3 Core_desc.x86.freq_ghz;
  Alcotest.(check int) "arm fetch" 2 Core_desc.arm.fetch_width;
  Alcotest.(check int) "x86 fetch" 4 Core_desc.x86.fetch_width

let test_switch_core () =
  let m = Machine.create ~active:Desc.Cisc () in
  Alcotest.(check int) "no migrations yet" 0 (Machine.migrations m);
  Machine.switch_core m Desc.Risc;
  Alcotest.(check bool) "active switched" true (Machine.active m = Desc.Risc);
  Machine.switch_core m Desc.Risc;
  Alcotest.(check int) "same-core switch not counted" 1 (Machine.migrations m)

let () =
  Alcotest.run "machine"
    [
      ( "mem",
        [
          Alcotest.test_case "read write" `Quick test_mem_rw;
          Alcotest.test_case "word accessors match bytes" `Quick test_mem_word_accessors;
          Alcotest.test_case "write hook" `Quick test_mem_write_hook;
          Alcotest.test_case "faults" `Quick test_mem_fault;
          Alcotest.test_case "strings" `Quick test_mem_strings;
          Alcotest.test_case "bad spans refuse" `Quick test_mem_bad_span;
        ] );
      ( "timing-structures",
        [
          Alcotest.test_case "cache" `Quick test_cache_behavior;
          Alcotest.test_case "cache vs LRU model" `Quick test_cache_matches_lru_model;
          Alcotest.test_case "bpred loop" `Quick test_bpred_learns_loop;
          Alcotest.test_case "bpred vs counter model" `Quick test_bpred_matches_counter_model;
          Alcotest.test_case "bpred ras" `Quick test_bpred_ras;
          Alcotest.test_case "rat lru" `Quick test_rat_lru;
          Alcotest.test_case "core descs" `Quick test_core_descs_match_table1;
        ] );
      ( "exec",
        [
          Alcotest.test_case "cisc loop" `Quick test_exec_cisc_loop;
          Alcotest.test_case "risc loop" `Quick test_exec_risc_loop;
          Alcotest.test_case "bad fetch" `Quick test_exec_bad_fetch_faults;
          Alcotest.test_case "execve detection" `Quick test_exec_execve_detected;
          Alcotest.test_case "ret to sentinel" `Quick test_native_ret_to_sentinel_exits;
          Alcotest.test_case "rat-mode ret traps" `Quick test_rat_mode_ret_traps;
          Alcotest.test_case "callrat mapping" `Quick test_callrat_inserts_mapping;
          Alcotest.test_case "trap stub" `Quick test_trap_stub;
          Alcotest.test_case "cache-jump SFI" `Quick test_indirect_jump_into_cache_faults;
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
          Alcotest.test_case "switch core" `Quick test_switch_core;
        ] );
    ]
