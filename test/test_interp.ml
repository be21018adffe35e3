(* The predecoded-block interpreter must be invisible: every
   simulation — each registered workload, the fuzzer's generated
   programs, eviction-churn configs — must produce bit-identical
   results with the decode cache on (the packed block loop) and off
   (the per-instruction decode oracle): outputs, cycle floats,
   instruction counts, suspicious events, migrations. Plus unit
   tests for the machinery itself: Mem write generations, staleness
   under self-modifying code, wholesale invalidation on context
   switch and code-cache flush, and the Mem fast-path/cstring
   satellite fixes. *)

module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Machine = Hipstr_machine.Machine
module Decode_cache = Hipstr_machine.Decode_cache
module Packed = Hipstr_machine.Packed
module Exec = Hipstr_machine.Exec
module Desc = Hipstr_isa.Desc
module Minstr = Hipstr_isa.Minstr
module Cisc = Hipstr_cisc.Isa
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads
module Obs = Hipstr_obs.Obs

(* ------------------------------------------------------------------ *)
(* Differential checks, through the shared harness (Diff_harness) *)

let run_fatbin ~decode_cache ?cfg ~mode ~seed ~fuel fb =
  let sys =
    System.of_fatbin ~obs:Obs.disabled ?cfg ~seed ~start_isa:Desc.Cisc ~decode_cache ~mode fb
  in
  Diff_harness.run_sys sys ~fuel

let differential_fatbin label ?cfg ~mode ~seed ~fuel fb =
  let on = run_fatbin ~decode_cache:true ?cfg ~mode ~seed ~fuel fb in
  let off = run_fatbin ~decode_cache:false ?cfg ~mode ~seed ~fuel fb in
  Diff_harness.check label on off

(* Every registered workload (including httpd), every mode. Fuel is
   bounded well below the workloads' nominal budgets to keep the
   suite quick — cutting a run short mid-loop is itself a useful
   case (the cache is hot when fuel runs out). *)
let test_workload_differential () =
  let fuel = 200_000 in
  List.iter
    (fun name ->
      let fb = Workloads.fatbin (Workloads.find name) in
      List.iter
        (fun (mlabel, mode) ->
          differential_fatbin (name ^ "/" ^ mlabel) ~mode ~seed:3 ~fuel fb)
        [ ("native", System.Native); ("psr", System.Psr_only); ("hipstr", System.Hipstr) ])
    Workloads.names

(* Migration-heavy and eviction-heavy configs: forced migrations
   rewrite register state across ISAs mid-run, and tiny caches churn
   the code-cache region (installs, chain patches, trap-byte
   restores) — the decode-cache invalidation paths with the most
   traffic. Split in two cases: forced migration and a tiny FIFO
   cache apart, then the other tiny-cache policies and migration
   under eviction together. *)
let churn_fuel = 400_000
let always = { Config.default with migrate_prob = 1.0 }
let tiny policy = { Config.default with cache_bytes = 4096; cc_policy = policy }

let test_churn_configs_differential () =
  let fb = Workloads.fatbin (Workloads.find "gobmk") in
  let tiny_fifo = tiny Hipstr_psr.Code_cache.Fifo in
  differential_fatbin "gobmk/hipstr-always" ~cfg:always ~mode:System.Hipstr ~seed:5 ~fuel:churn_fuel
    fb;
  differential_fatbin "gobmk/psr-tiny-fifo" ~cfg:tiny_fifo ~mode:System.Psr_only ~seed:5
    ~fuel:churn_fuel fb;
  (* make sure the fifo config actually evicted — a no-churn run
     would vacuously pass *)
  let sys =
    System.of_fatbin ~obs:Obs.disabled ~cfg:tiny_fifo ~seed:5 ~start_isa:Desc.Cisc
      ~mode:System.Psr_only fb
  in
  ignore (System.run sys ~fuel:churn_fuel);
  Alcotest.(check bool)
    "tiny fifo config churns" true
    (System.cache_evictions sys > 0)

let test_churn_differential () =
  let fb = Workloads.fatbin (Workloads.find "gobmk") in
  let tiny_always = { (tiny Hipstr_psr.Code_cache.Fifo) with migrate_prob = 1.0 } in
  differential_fatbin "gobmk/psr-tiny-clock" ~cfg:(tiny Hipstr_psr.Code_cache.Clock)
    ~mode:System.Psr_only ~seed:5 ~fuel:churn_fuel fb;
  differential_fatbin "gobmk/psr-tiny-flush" ~cfg:(tiny Hipstr_psr.Code_cache.Flush)
    ~mode:System.Psr_only ~seed:5 ~fuel:churn_fuel fb;
  differential_fatbin "gobmk/hipstr-always-tiny-fifo" ~cfg:tiny_always ~mode:System.Hipstr ~seed:5
    ~fuel:churn_fuel fb

(* The fuzzer's generated programs, cache on vs off, across the same
   config shapes the fuzz suite uses. *)
let test_progen_differential () =
  let fuel = 1_000_000 in
  let always = { Config.default with migrate_prob = 1.0 } in
  let tiny_fifo =
    { Config.default with cache_bytes = 4096; cc_policy = Hipstr_psr.Code_cache.Fifo }
  in
  for seed = 1 to 10 do
    let src = Progen.generate seed in
    let run ~decode_cache ?cfg ~mode ~isa s =
      let sys = System.create ~obs:Obs.disabled ?cfg ~seed:s ~start_isa:isa ~decode_cache ~mode ~src () in
      Diff_harness.run_sys sys ~fuel
    in
    List.iter
      (fun (label, mode, isa, s, cfg) ->
        let on = run ~decode_cache:true ?cfg ~mode ~isa s in
        let off = run ~decode_cache:false ?cfg ~mode ~isa s in
        Diff_harness.check (Printf.sprintf "progen %d %s" seed label) on off)
      [
        ("native-cisc", System.Native, Desc.Cisc, 1, None);
        ("native-risc", System.Native, Desc.Risc, 1, None);
        ("psr", System.Psr_only, Desc.Cisc, 1 + (seed * 7), None);
        ("hipstr", System.Hipstr, Desc.Cisc, 4 + seed, Some always);
        ("psr-tiny-fifo", System.Psr_only, Desc.Cisc, 7 + (seed * 5), Some tiny_fifo);
      ]
  done

(* ------------------------------------------------------------------ *)
(* Mem: regions, generations, fast paths, cstrings *)

let test_mem_watch_generations () =
  let m = Mem.create 4096 in
  let r = Mem.watch m ~lo:1024 ~hi:2048 in
  Alcotest.(check int) "fresh region" 0 (Mem.generation r);
  Mem.write8 m 1024 0xAB;
  Alcotest.(check int) "write8 bumps" 1 (Mem.generation r);
  Mem.write8 m 1023 0xAB;
  Mem.write8 m 2048 0xAB;
  Alcotest.(check int) "outside writes don't" 1 (Mem.generation r);
  Mem.write32 m 2044 0xDEAD;
  Alcotest.(check int) "write32 in region bumps once" 2 (Mem.generation r);
  Mem.blit_string m 1500 "xyz";
  Alcotest.(check int) "blit bumps once" 3 (Mem.generation r);
  Mem.unsafe_write8 m 1025 1;
  Alcotest.(check int) "unsafe_write8 still hooks" 4 (Mem.generation r);
  ignore (Mem.read32 m 1024);
  ignore (Mem.read8 m 1024);
  Alcotest.(check int) "reads never bump" 4 (Mem.generation r);
  (* straddling blit bumps both regions *)
  let r2 = Mem.watch m ~lo:2048 ~hi:2060 in
  Mem.blit_string m 2040 "0123456789ab";
  Alcotest.(check int) "straddle bumps left" 5 (Mem.generation r);
  Alcotest.(check int) "straddle bumps right" 1 (Mem.generation r2)

let test_mem_region_registry () =
  let m = Mem.create 4096 in
  let r = Mem.watch m ~lo:100 ~hi:200 in
  let r' = Mem.watch m ~lo:100 ~hi:200 in
  Alcotest.(check bool) "same bounds dedupe" true (r == r');
  Alcotest.(check bool) "region_of inside" true (Mem.region_of m 150 = Some r);
  Alcotest.(check bool) "region_of at hi is outside" true (Mem.region_of m 200 = None);
  Alcotest.(check int) "region_lo" 100 (Mem.region_lo r);
  Alcotest.(check int) "region_hi" 200 (Mem.region_hi r);
  Alcotest.check_raises "overlap rejected" (Invalid_argument "Mem.watch: overlapping region")
    (fun () -> ignore (Mem.watch m ~lo:150 ~hi:300));
  Alcotest.check_raises "bad bounds rejected" (Invalid_argument "Mem.watch: bad region bounds")
    (fun () -> ignore (Mem.watch m ~lo:10 ~hi:10))

let test_mem_word_fast_path_edges () =
  let m = Mem.create 64 in
  Mem.write32 m 60 0x7FFFFFFF;
  Alcotest.(check int) "last aligned word" 0x7FFFFFFF (Mem.read32 m 60);
  Mem.write32 m 0 (-123);
  Alcotest.(check int) "signed round-trip" (-123) (Mem.read32 m 0);
  (* the slow path must fault with the same offending address the
     byte-by-byte implementation reported *)
  Alcotest.check_raises "straddling read faults at a+3" (Mem.Fault 64) (fun () ->
      ignore (Mem.read32 m 61));
  Alcotest.check_raises "negative read faults at a" (Mem.Fault (-2)) (fun () ->
      ignore (Mem.read32 m (-2)));
  Alcotest.check_raises "straddling write faults at a+3" (Mem.Fault 65) (fun () ->
      Mem.write32 m 62 0);
  Alcotest.(check int) "probe8 in bounds" (Mem.read8 m 0) (Mem.probe8 m 0);
  Alcotest.(check int) "probe8 oob is -1" (-1) (Mem.probe8 m 64);
  Alcotest.(check int) "probe8 negative is -1" (-1) (Mem.probe8 m (-1));
  let read = Mem.reader m in
  Alcotest.(check int) "reader matches probe8" (Mem.probe8 m 60) (read 60);
  (* [a + 3] wraps negative for [a] near [max_int]; the bound must
     still reject it (the wrapped compare accepted it and indexed far
     outside the backing store) *)
  let m = Mem.create 4096 in
  List.iter
    (fun a ->
      Alcotest.check_raises "read near max_int faults at a" (Mem.Fault a) (fun () ->
          ignore (Mem.read32 m a));
      Alcotest.check_raises "write near max_int faults at a" (Mem.Fault a) (fun () ->
          Mem.write32 m a 1))
    [ max_int - 1; max_int - 2 ]

(* Paged backing store: 4 KiB pages, all sharing one zero page until
   their first write. None of it may show through the accessors. *)
let page = 4096

let test_mem_word_across_page_edge () =
  let m = Mem.create (4 * page) in
  let a = page - 2 in
  Mem.write32 m a (-0x12345679);
  Alcotest.(check int) "read32 across the edge" (-0x12345679) (Mem.read32 m a);
  let expect = [ 0x87; 0xA9; 0xCB; 0xED ] in
  List.iteri
    (fun i b -> Alcotest.(check int) (Printf.sprintf "read8 byte %d" i) b (Mem.read8 m (a + i)))
    expect;
  Alcotest.(check int) "neighbour below the word" 0 (Mem.read8 m (a - 1));
  Alcotest.(check int) "neighbour above the word" 0 (Mem.read8 m (a + 4));
  Alcotest.(check int) "rest of the upper page" 0 (Mem.read32 m (page + 4));
  Alcotest.(check int) "an untouched page" 0 (Mem.read32 m (3 * page));
  Mem.write8 m (2 * page) 0x5A;
  Alcotest.(check int) "byte store on a fresh page" 0x5A (Mem.read8 m (2 * page));
  Alcotest.(check int) "its neighbour" 0 (Mem.read8 m ((2 * page) + 1))

let test_mem_strings_across_pages () =
  let m = Mem.create (5 * page) in
  let s = String.init ((3 * page) + 17) (fun i -> Char.chr (1 + (i * 7 mod 251))) in
  let a = page - 9 in
  Mem.blit_string m a s;
  Alcotest.(check string) "round-trip over four pages" s (Mem.read_string m a (String.length s));
  Alcotest.(check string) "a slice from the middle" (String.sub s 4000 300)
    (Mem.read_string m (a + 4000) 300);
  Alcotest.(check int) "byte before the blit" 0 (Mem.read8 m (a - 1));
  Alcotest.(check int) "byte after the blit" 0 (Mem.read8 m (a + String.length s));
  Alcotest.(check string) "untouched span reads zeros" (String.make 100 '\000')
    (Mem.read_string m ((5 * page) - 100) 100)

let test_mem_zero_page_never_written () =
  let m = Mem.create (2 * page) in
  Mem.write32 m 8 (-1);
  Mem.write8 m (page + 3) 0xFF;
  Mem.blit_string m 100 "payload";
  let fresh = Mem.create (2 * page) in
  Alcotest.(check string) "a fresh memory is still all zero" (String.make (2 * page) '\000')
    (Mem.read_string fresh 0 (2 * page));
  Alcotest.(check bool) "fresh memories compare equal" true
    (Mem.equal_span fresh (Mem.create (2 * page)) 0 (2 * page));
  Alcotest.(check bool) "the written one differs" false (Mem.equal_span m fresh 0 (2 * page))

let test_mem_watch_across_page_edge () =
  let m = Mem.create (2 * page) in
  let r = Mem.watch m ~lo:(page - 64) ~hi:(page + 64) in
  Mem.write32 m (page - 1) 0x01020304;
  Alcotest.(check int) "straddling store bumps once" 1 (Mem.generation r);
  Alcotest.(check bool) "and stamps its span dirty" false
    (Mem.span_clean r ~lo:(page - 1) ~hi:(page + 3) ~since:0);
  Mem.blit_string m (page - 2) "abcd";
  Alcotest.(check int) "straddling blit bumps once" 2 (Mem.generation r)

(* Region stamps are paged too (one chunk per 4 KiB of region, shared
   all-zero until written). [span_clean] must agree with a flat model
   of one stamp per 64 bytes over random stores, on a region whose
   bounds sit off every page and stamp edge, and a write to one
   memory's region must leave another memory's region clean. *)
let test_mem_stamps_match_flat_model () =
  let g = Hipstr_util.Rng.create 57 in
  let lo = page + 100 and hi = (5 * page) + 37 in
  let m = Mem.create (6 * page) in
  let r = Mem.watch m ~lo ~hi in
  let other = Mem.create (6 * page) in
  let r' = Mem.watch other ~lo ~hi in
  let model = Array.make (6 * page / 64) 0 in
  let gen = ref 0 in
  let wrote a b =
    (* [a, b] inclusive; a write overlapping the region bumps it once
       and stamps the 64-byte pages it covers inside the region *)
    if a < hi && b >= lo then begin
      incr gen;
      for k = max a lo / 64 to min b (hi - 1) / 64 do
        model.(k) <- !gen
      done
    end
  in
  for _ = 1 to 400 do
    let a = Hipstr_util.Rng.int g ((6 * page) - 300) in
    match Hipstr_util.Rng.int g 3 with
    | 0 ->
      Mem.write8 m a 1;
      wrote a a
    | 1 ->
      Mem.write32 m a 1;
      wrote a (a + 3)
    | _ ->
      let n = 1 + Hipstr_util.Rng.int g 299 in
      Mem.blit_string m a (String.make n 'x');
      wrote a (a + n - 1)
  done;
  Alcotest.(check int) "one bump per overlapping write" !gen (Mem.generation r);
  for _ = 1 to 2000 do
    let a = Hipstr_util.Rng.int g (6 * page) in
    let b = a + 1 + Hipstr_util.Rng.int g 600 in
    let since = Hipstr_util.Rng.int g (!gen + 1) in
    let a' = max a lo and b' = min b hi in
    let expect =
      a' >= b'
      ||
      let ok = ref true in
      for k = a' / 64 to (b' - 1) / 64 do
        if model.(k) > since then ok := false
      done;
      !ok
    in
    Alcotest.(check bool)
      (Printf.sprintf "span [%d, %d) since %d" a b since)
      expect
      (Mem.span_clean r ~lo:a ~hi:b ~since)
  done;
  Alcotest.(check int) "the other memory's region never moved" 0 (Mem.generation r');
  Alcotest.(check bool) "and reads clean everywhere" true
    (Mem.span_clean r' ~lo ~hi ~since:0)

let test_mem_equal_span_matches_read_string () =
  let g = Hipstr_util.Rng.create 41 in
  let size = 6 * page in
  let m = Mem.create size and m' = Mem.create size in
  (* both memories get the same writes, then a few go to one only *)
  for _ = 1 to 40 do
    let a = Hipstr_util.Rng.int g (size - 4) and v = Hipstr_util.Rng.bits32 g in
    Mem.write32 m a v;
    Mem.write32 m' a v
  done;
  for _ = 1 to 6 do
    let a = Hipstr_util.Rng.int g size in
    Mem.write8 m a (Mem.read8 m a lxor (1 + Hipstr_util.Rng.int g 255))
  done;
  (* a zero store still gives a page a private buffer *)
  Mem.write32 m' (4 * page) 0;
  for _ = 1 to 500 do
    let a = Hipstr_util.Rng.int g size in
    let n = Hipstr_util.Rng.int g (size - a + 1) in
    Alcotest.(check bool)
      (Printf.sprintf "span %d+%d" a n)
      (Mem.read_string m a n = Mem.read_string m' a n)
      (Mem.equal_span m m' a n)
  done;
  Alcotest.check_raises "span past the end" (Mem.Bad_span (size - 2, 4)) (fun () ->
      ignore (Mem.equal_span m m' (size - 2) 4))

let test_mem_cstring_unterminated () =
  let m = Mem.create 8192 in
  Mem.blit_string m 10 "hello\000";
  Alcotest.(check string) "terminated ok" "hello" (Mem.read_cstring m 10);
  (* no NUL within the default 4096-byte limit: must raise, never
     silently truncate *)
  for i = 0 to 5000 do
    Mem.write8 m (100 + i) 0x41
  done;
  Alcotest.check_raises "unterminated raises" (Mem.Cstring_unterminated 100) (fun () ->
      ignore (Mem.read_cstring m 100));
  Alcotest.check_raises "custom limit" (Mem.Cstring_unterminated 100) (fun () ->
      ignore (Mem.read_cstring ~limit:16 m 100));
  Mem.write8 m 116 0;
  Alcotest.(check int) "limit is exclusive of the NUL" 16
    (String.length (Mem.read_cstring ~limit:17 m 100))

(* ------------------------------------------------------------------ *)
(* Decode_cache: blocks, staleness, invalidation *)

(* Assemble a loop at the CISC code base:
     base:   mov r0, #5
             jmp base
   and a straight-line block behind it. *)
let assemble mem at instrs =
  List.fold_left
    (fun pos i ->
      let s = Cisc.encode ~at:pos i in
      Mem.blit_string mem pos s;
      pos + String.length s)
    at instrs

let test_decode_cache_blocks () =
  let mem = Mem.create Layout.mem_size in
  let dc = Decode_cache.create ~obs:Obs.disabled ~isa:"cisc" Desc.Cisc mem in
  let base = Layout.cisc_code_base in
  let _end = assemble mem base [ Minstr.Mov (Reg 0, Imm 5); Minstr.Jmp base ] in
  (match Decode_cache.lookup dc base with
  | None -> Alcotest.fail "block not cacheable"
  | Some b ->
    Alcotest.(check int) "two instructions" 2 (Array.length b.Decode_cache.db_code / 4);
    Alcotest.(check bool) "ends at terminator, not bad" false b.Decode_cache.db_bad;
    Alcotest.(check bool) "fresh block not stale" false (Decode_cache.stale b));
  let st = Decode_cache.stats dc in
  Alcotest.(check int) "one miss" 1 st.Decode_cache.misses;
  ignore (Decode_cache.lookup dc base);
  Alcotest.(check int) "second lookup hits" 1 st.Decode_cache.hits;
  (* outside every watched region: uncacheable *)
  Alcotest.(check bool) "stack address uncacheable" true
    (Decode_cache.lookup dc (Layout.stack_top - 64) = None)

let test_decode_cache_self_modify () =
  let mem = Mem.create Layout.mem_size in
  let dc = Decode_cache.create ~obs:Obs.disabled ~isa:"cisc" Desc.Cisc mem in
  let base = Layout.cisc_code_base in
  ignore (assemble mem base [ Minstr.Mov (Reg 0, Imm 5); Minstr.Jmp base ]);
  let b =
    match Decode_cache.lookup dc base with Some b -> b | None -> Alcotest.fail "uncacheable"
  in
  (* any write into the region makes the block stale... *)
  Mem.write8 mem (base + 1) 0x09;
  Alcotest.(check bool) "stale after code write" true (Decode_cache.stale b);
  Decode_cache.drop dc b;
  (* ...and a fresh lookup decodes the current bytes *)
  ignore (assemble mem base [ Minstr.Mov (Reg 0, Imm 9); Minstr.Jmp base ]);
  (match Decode_cache.lookup dc base with
  | Some b' -> (
    Alcotest.(check bool) "re-decoded block fresh" false (Decode_cache.stale b');
    let code = b'.Decode_cache.db_code in
    match Packed.unpack code.(0) code.(1) code.(2) with
    | Minstr.Mov (_, Imm 9), _ -> ()
    | i, _ ->
      Alcotest.failf "stale decode survived: %s"
        (Minstr.to_string ~reg_name:(Desc.reg_name Cisc.desc) i))
  | None -> Alcotest.fail "uncacheable after rewrite");
  let st = Decode_cache.stats dc in
  Alcotest.(check int) "drop counted" 1 st.Decode_cache.invalidations;
  Decode_cache.invalidate_all dc;
  Alcotest.(check int) "flush counted" 1 st.Decode_cache.flushes;
  Alcotest.(check int) "table empty" 0 (Decode_cache.entries dc)

(* End-to-end self-modifying code through the machine: run a loop,
   rewrite its body mid-run, keep running — the cached machine must
   see the new bytes exactly like the uncached one. *)
let test_machine_self_modify_differential () =
  let run ~decode_cache =
    let m = Machine.create ~obs:Obs.disabled ~decode_cache ~active:Desc.Cisc () in
    let mem = Machine.mem m in
    let base = Layout.cisc_code_base in
    (* add r0 += 1 ; jmp base *)
    ignore (assemble mem base [ Minstr.Binop (Add, Reg 0, Imm 1); Minstr.Jmp base ]);
    Machine.boot m ~entry:base;
    let r1 = Machine.run m ~fuel:100 in
    (* hot loop: now rewrite the increment to 16 in place *)
    ignore (assemble mem base [ Minstr.Binop (Add, Reg 0, Imm 16) ]);
    let r2 = Machine.run m ~fuel:100 in
    (r1, r2, (Machine.cpu m).regs.(0), Machine.instructions m, Machine.cycles m)
  in
  let t1, t2, r0_on, i_on, c_on = run ~decode_cache:true in
  let t1', t2', r0_off, i_off, c_off = run ~decode_cache:false in
  Alcotest.(check bool) "both out of fuel (1st)" true (t1 = None && t1' = None);
  Alcotest.(check bool) "both out of fuel (2nd)" true (t2 = None && t2' = None);
  Alcotest.(check int) "r0 identical" r0_off r0_on;
  Alcotest.(check int) "instructions identical" i_off i_on;
  Alcotest.(check bool) "cycles identical" true (c_on = c_off);
  (* 100 fuel of a 2-instruction loop at +1, then 100 at +16 *)
  Alcotest.(check int) "r0 reflects the rewritten body" (50 + (50 * 16)) r0_on;
  (* the cached run must actually have noticed the rewrite *)
  let m = Machine.create ~obs:Obs.disabled ~active:Desc.Cisc () in
  let mem = Machine.mem m in
  let base = Layout.cisc_code_base in
  ignore (assemble mem base [ Minstr.Binop (Add, Reg 0, Imm 1); Minstr.Jmp base ]);
  Machine.boot m ~entry:base;
  ignore (Machine.run m ~fuel:100);
  ignore (assemble mem base [ Minstr.Binop (Add, Reg 0, Imm 16) ]);
  ignore (Machine.run m ~fuel:100);
  match Machine.decode_cache_stats m Desc.Cisc with
  | None -> Alcotest.fail "expected a decode cache"
  | Some st ->
    Alcotest.(check bool) "rewrite invalidated at least one block" true
      (st.Decode_cache.invalidations > 0)

let test_context_switch_flush_drops_blocks () =
  let m = Machine.create ~obs:Obs.disabled ~active:Desc.Cisc () in
  let mem = Machine.mem m in
  let base = Layout.cisc_code_base in
  ignore (assemble mem base [ Minstr.Binop (Add, Reg 0, Imm 1); Minstr.Jmp base ]);
  Machine.boot m ~entry:base;
  ignore (Machine.run m ~fuel:50);
  let st =
    match Machine.decode_cache_stats m Desc.Cisc with
    | Some st -> st
    | None -> Alcotest.fail "expected a decode cache"
  in
  let inv_before = st.Decode_cache.invalidations in
  Machine.context_switch_flush m;
  Alcotest.(check int) "flush counted" 1 st.Decode_cache.flushes;
  Alcotest.(check bool) "cached blocks dropped" true
    (st.Decode_cache.invalidations > inv_before);
  (* and the machine still runs correctly from a cold table *)
  ignore (Machine.run m ~fuel:50);
  Alcotest.(check int) "instructions keep counting" 100 (Machine.instructions m)

(* The --no-decode-cache escape hatch really disables it. *)
let test_escape_hatch () =
  let m = Machine.create ~obs:Obs.disabled ~decode_cache:false ~active:Desc.Cisc () in
  Alcotest.(check bool) "no stats without a cache" true
    (Machine.decode_cache_stats m Desc.Cisc = None);
  let fb = Workloads.fatbin (Workloads.find "bzip2") in
  let sys =
    System.of_fatbin ~obs:Obs.disabled ~decode_cache:true ~seed:1 ~start_isa:Desc.Cisc
      ~mode:System.Native fb
  in
  ignore (System.run sys ~fuel:50_000);
  match Machine.decode_cache_stats (System.machine sys) Desc.Cisc with
  | None -> Alcotest.fail "expected a decode cache"
  | Some st ->
    (* with chaining on, most re-entries bypass the hashtable probe as
       chain follows, so count both kinds of warm hit *)
    Alcotest.(check bool) "cache saw real traffic" true
      (st.Decode_cache.hits + st.Decode_cache.chain_follows > st.Decode_cache.misses)

let () =
  Alcotest.run "interp"
    [
      ( "differential",
        [
          Alcotest.test_case "all workloads, all modes" `Quick test_workload_differential;
          Alcotest.test_case "churn configs" `Quick test_churn_configs_differential;
          Alcotest.test_case "migration/eviction churn" `Quick test_churn_differential;
          Alcotest.test_case "progen programs" `Quick test_progen_differential;
        ] );
      ( "mem",
        [
          Alcotest.test_case "watch generations" `Quick test_mem_watch_generations;
          Alcotest.test_case "region registry" `Quick test_mem_region_registry;
          Alcotest.test_case "word fast-path edges" `Quick test_mem_word_fast_path_edges;
          Alcotest.test_case "cstring unterminated" `Quick test_mem_cstring_unterminated;
          Alcotest.test_case "word across a page edge" `Quick test_mem_word_across_page_edge;
          Alcotest.test_case "strings across pages" `Quick test_mem_strings_across_pages;
          Alcotest.test_case "zero page never written" `Quick test_mem_zero_page_never_written;
          Alcotest.test_case "watch across a page edge" `Quick test_mem_watch_across_page_edge;
          Alcotest.test_case "stamps match a flat model" `Quick test_mem_stamps_match_flat_model;
          Alcotest.test_case "equal_span matches read_string" `Quick
            test_mem_equal_span_matches_read_string;
        ] );
      ( "decode-cache",
        [
          Alcotest.test_case "blocks and stats" `Quick test_decode_cache_blocks;
          Alcotest.test_case "self-modify staleness" `Quick test_decode_cache_self_modify;
          Alcotest.test_case "machine self-modify differential" `Quick
            test_machine_self_modify_differential;
          Alcotest.test_case "context-switch flush" `Quick test_context_switch_flush_drops_blocks;
          Alcotest.test_case "escape hatch" `Quick test_escape_hatch;
        ] );
    ]
