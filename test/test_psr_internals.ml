(* White-box tests of the PSR machinery: relocation-map invariants
   (property-based), translator structural properties, code cache and
   configuration validation. *)

module Config = Hipstr_psr.Config
module Reloc_map = Hipstr_psr.Reloc_map
module Code_cache = Hipstr_psr.Code_cache
module Translator = Hipstr_psr.Translator
module Vm = Hipstr_psr.Vm
module Rng = Hipstr_util.Rng
module Desc = Hipstr_isa.Desc
module Minstr = Hipstr_isa.Minstr
module Compile = Hipstr_compiler.Compile
module Fatbin = Hipstr_compiler.Fatbin
module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Machine = Hipstr_machine.Machine
module System = Hipstr.System
module Workloads = Hipstr_workloads.Workloads

let sample_fb =
  lazy
    (Compile.to_fatbin
       {| int helper(int a, int b, int c) {
            int arr[6];
            int i;
            for (i = 0; i < 6; i = i + 1) { arr[i] = a * i + b; }
            return arr[c % 6];
          }
          int main() {
            int total = 0;
            int i;
            for (i = 0; i < 10; i = i + 1) { total = total + helper(i, i + 1, i + 2); }
            print(total);
            return 0;
          } |})

let gen_map ?(cfg = Config.default) ~seed which fname =
  let fb = Lazy.force sample_fb in
  let fs = Fatbin.find_func fb fname in
  let desc = match which with Desc.Cisc -> Hipstr_cisc.Isa.desc | Desc.Risc -> Hipstr_risc.Isa.desc in
  (Reloc_map.generate cfg (Rng.create seed) desc fs ~hot_regs:[], fs)

(* --- relocation-map properties --- *)

let prop_locations_distinct =
  QCheck.Test.make ~count:60 ~name:"relocated locations distinct and in range"
    QCheck.(int_range 1 100000)
    (fun seed ->
      let map, fs = gen_map ~seed Desc.Cisc "helper" in
      let locs = Reloc_map.randomized_locations map in
      let frame' = Reloc_map.padded_frame map in
      List.for_all (fun off -> off >= 0 && off < frame' - 4 && off mod 4 = 0) locs
      && List.length (List.sort_uniq compare locs) = List.length locs
      && frame' = fs.Fatbin.fs_frame.frame_bytes + Config.default.pad_bytes)

let prop_reg_map_injective =
  QCheck.Test.make ~count:60 ~name:"register relocation injective"
    QCheck.(int_range 1 100000)
    (fun seed ->
      let map, _ = gen_map ~seed Desc.Cisc "helper" in
      let desc = Hipstr_cisc.Isa.desc in
      let targets =
        List.filter_map
          (fun r ->
            match Reloc_map.map_reg map r with
            | Reloc_map.Lreg r' -> Some (`R r')
            | Reloc_map.Lpad off -> Some (`P off))
          desc.allocatable
      in
      List.length (List.sort_uniq compare targets) = List.length targets)

let prop_register_bias =
  QCheck.Test.make ~count:60 ~name:"O3 keeps at least three registers in registers"
    QCheck.(int_range 1 100000)
    (fun seed ->
      let map, _ = gen_map ~seed Desc.Cisc "helper" in
      Reloc_map.regs_in_registers map >= 3)

let prop_map_slot_total =
  QCheck.Test.make ~count:200 ~name:"slot mapping total and in range"
    QCheck.(pair (int_range 1 1000) (int_range (-200) 70000))
    (fun (seed, off) ->
      let map, _ = gen_map ~seed Desc.Cisc "helper" in
      let off' = Reloc_map.map_slot map off in
      off' >= 0 && off' < Reloc_map.padded_frame map)

let prop_map_slot_deterministic =
  QCheck.Test.make ~count:100 ~name:"slot mapping deterministic within an epoch"
    QCheck.(pair (int_range 1 1000) (int_range 0 40000))
    (fun (seed, off) ->
      let map, _ = gen_map ~seed Desc.Cisc "helper" in
      Reloc_map.map_slot map off = Reloc_map.map_slot map off)

let prop_maps_differ_across_seeds =
  QCheck.Test.make ~count:30 ~name:"different seeds give different maps"
    QCheck.(int_range 1 100000)
    (fun seed ->
      let m1, _ = gen_map ~seed Desc.Cisc "helper" in
      let m2, _ = gen_map ~seed:(seed + 1) Desc.Cisc "helper" in
      Reloc_map.ret_off m1 <> Reloc_map.ret_off m2
      || Reloc_map.randomized_locations m1 <> Reloc_map.randomized_locations m2)

let test_sp_and_scratch_identity () =
  let map, _ = gen_map ~seed:5 Desc.Cisc "helper" in
  Alcotest.(check bool) "sp identity" true (Reloc_map.map_reg map 7 = Reloc_map.Lreg 7);
  (* scratches are not in the allocatable set and stay put *)
  Alcotest.(check bool) "scratch identity" true (Reloc_map.map_reg map 6 = Reloc_map.Lreg 6)

let test_entropy_bits () =
  Alcotest.(check (float 0.01)) "8 KB pad, word slots: 11 bits" 11.
    (Reloc_map.entropy_bits_per_param Config.default);
  Alcotest.(check (float 0.01)) "64 KB pad: 14 bits" 14.
    (Reloc_map.entropy_bits_per_param { Config.default with pad_bytes = 65536 })

(* --- translator structural properties --- *)

let translate_entry ~seed which fname =
  let fb = Lazy.force sample_fb in
  let fs = Fatbin.find_func fb fname in
  let mem = Mem.create Layout.mem_size in
  Fatbin.load fb mem;
  let read a = try Mem.read8 mem a with Mem.Fault _ -> -1 in
  let desc = match which with Desc.Cisc -> Hipstr_cisc.Isa.desc | Desc.Risc -> Hipstr_risc.Isa.desc in
  let map = ref None in
  let map_of fs' =
    match !map with
    | Some (name, m) when name = fs'.Fatbin.fs_name -> m
    | _ ->
      let m = Reloc_map.generate Config.default (Rng.create seed) desc fs' ~hot_regs:[] in
      map := Some (fs'.Fatbin.fs_name, m);
      m
  in
  let entry = (Fatbin.image fs which).im_entry in
  Translator.translate Config.default desc ~read ~fatbin:fb ~map_of ~src:entry
    ~base:(Layout.cache_base which)

let test_translated_unit_decodes () =
  List.iter
    (fun which ->
      let u = translate_entry ~seed:3 which "helper" in
      Alcotest.(check bool) "bytes emitted" true (u.Translator.u_size > 0);
      (* decode the emitted bytes linearly: they must all be valid *)
      let read i =
        if i - Layout.cache_base which < 0 || i - Layout.cache_base which >= u.u_size then -1
        else Char.code u.u_bytes.[i - Layout.cache_base which]
      in
      let decode a =
        match which with
        | Desc.Cisc -> Hipstr_cisc.Isa.decode ~read a
        | Desc.Risc -> Hipstr_risc.Isa.decode ~read a
      in
      let pos = ref (Layout.cache_base which) in
      let stop = Layout.cache_base which + u.u_size in
      while !pos < stop do
        match decode !pos with
        | Some (_, len) -> pos := !pos + len
        | None -> Alcotest.failf "undecodable translated byte at +%d" (!pos - Layout.cache_base which)
      done)
    [ Desc.Cisc; Desc.Risc ]

let test_translated_unit_has_exits () =
  let u = translate_entry ~seed:3 Desc.Cisc "main" in
  Alcotest.(check bool) "has exit stubs or ends in return"
    true
    (u.Translator.u_stubs <> [] || u.u_emitted > 0);
  Alcotest.(check bool) "consumed source instructions" true (u.u_instrs > 0);
  Alcotest.(check bool) "expansion factor sane" true
    (u.u_emitted >= u.u_instrs && u.u_emitted < 12 * u.u_instrs)

let test_trap_patchability () =
  Alcotest.(check bool) "cisc jmp/trap same size" true (Translator.jmp_same_size Hipstr_cisc.Isa.desc);
  Alcotest.(check bool) "risc jmp/trap same size" true (Translator.jmp_same_size Hipstr_risc.Isa.desc)

let test_wild_address_raises () =
  let fb = Lazy.force sample_fb in
  let mem = Mem.create Layout.mem_size in
  Fatbin.load fb mem;
  let read a = try Mem.read8 mem a with Mem.Fault _ -> -1 in
  match
    Translator.translate Config.default Hipstr_cisc.Isa.desc ~read ~fatbin:fb
      ~map_of:(fun _ -> assert false)
      ~src:0x5000 ~base:Layout.cisc_cache_base
  with
  | exception Translator.Wild 0x5000 -> ()
  | _ -> Alcotest.fail "expected Wild"

(* --- code cache --- *)

let test_code_cache () =
  let cc = Code_cache.create ~base:0x1000 ~capacity:1024 () in
  Alcotest.(check bool) "room initially" true (Code_cache.has_room cc ~align:1 ~size:512);
  let a, ev = Code_cache.alloc cc ~src:0x100 ~func:"f" ~size:100 ~src_spans:[ (0x100, 20) ] () in
  Alcotest.(check int) "first at base" 0x1000 a;
  Alcotest.(check int) "nothing displaced" 0 (List.length ev);
  Alcotest.(check (option int)) "lookup" (Some 0x1000) (Code_cache.lookup cc 0x100);
  let b, _ = Code_cache.alloc cc ~align:64 ~src:0x200 ~func:"g" ~size:100 ~src_spans:[] () in
  Alcotest.(check int) "aligned" 0 (b mod 64);
  Alcotest.(check int) "alloc follows next_addr" b (Code_cache.next_addr cc ~align:64 - 128);
  Alcotest.(check int) "two blocks" 2 (List.length (Code_cache.blocks cc));
  Code_cache.flush cc;
  Alcotest.(check (option int)) "flushed" None (Code_cache.lookup cc 0x100);
  Alcotest.(check int) "flush counted" 1 (Code_cache.flushes cc);
  Alcotest.(check int) "cursor reset" 0 (Code_cache.used_bytes cc)

(* has_room and alloc must agree through the one align_up path: after
   a 10-byte block, an align-128 request for 950 bytes of a 1024-byte
   cache must be refused up front (the old size-only check with its
   magic +64 slack said yes, then alloc raised). *)
let test_code_cache_align_boundary () =
  let cc = Code_cache.create ~base:0x1000 ~capacity:1024 () in
  ignore (Code_cache.alloc cc ~src:0x100 ~func:"f" ~size:10 ~src_spans:[] ());
  Alcotest.(check bool) "aligned request refused" false
    (Code_cache.has_room cc ~align:128 ~size:950);
  Alcotest.(check bool) "unaligned request accepted" true
    (Code_cache.has_room cc ~align:1 ~size:1014);
  (* exact fit to the last byte, on an alignment boundary *)
  let b, _ = Code_cache.alloc cc ~align:128 ~src:0x200 ~func:"g" ~size:(1024 - 0x80) ~src_spans:[] () in
  ignore b;
  Alcotest.(check bool) "cache exactly full" false (Code_cache.has_room cc ~align:1 ~size:1);
  Alcotest.(check int) "no slack left" 1024 (Code_cache.used_bytes cc)

let test_code_cache_exact_headroom () =
  (* a unit of exactly unit_headroom bytes in a unit_headroom-sized
     cache: has_room true must guarantee alloc succeeds *)
  let cap = 4096 in
  let cc = Code_cache.create ~base:0x1000 ~capacity:cap () in
  Alcotest.(check bool) "exact-capacity unit fits" true (Code_cache.has_room cc ~align:64 ~size:cap);
  let a, _ = Code_cache.alloc cc ~align:64 ~src:0x100 ~func:"f" ~size:cap ~src_spans:[] () in
  Alcotest.(check int) "placed at base" 0x1000 a

let test_code_cache_duplicate_src_dropped () =
  (* re-allocating a live src without an intervening flush must not
     leave a stale duplicate in the block list *)
  let cc = Code_cache.create ~base:0x1000 ~capacity:4096 () in
  ignore (Code_cache.alloc cc ~src:0x100 ~func:"f" ~size:100 ~src_spans:[] ());
  let a2, ev = Code_cache.alloc cc ~src:0x100 ~func:"f" ~size:120 ~src_spans:[] () in
  Alcotest.(check int) "stale block returned" 1 (List.length ev);
  Alcotest.(check int) "stale block was the old one" 0x1000
    (List.hd ev).Code_cache.cb_cache;
  Alcotest.(check int) "one live block" 1 (List.length (Code_cache.blocks cc));
  Alcotest.(check (option int)) "lookup follows the new block" (Some a2)
    (Code_cache.lookup cc 0x100)

let test_code_cache_fifo_eviction () =
  let cc = Code_cache.create ~policy:Code_cache.Fifo ~base:0x1000 ~capacity:256 () in
  let alloc src size =
    Code_cache.alloc cc ~src ~func:"f" ~size ~src_spans:[] ()
  in
  ignore (alloc 0x100 100);
  ignore (alloc 0x200 100);
  (* 56 bytes left: the next 100-byte block wraps and displaces the
     oldest block only *)
  let a3, ev = alloc 0x300 100 in
  Alcotest.(check int) "wrapped to base" 0x1000 a3;
  Alcotest.(check (list int)) "evicted exactly the first block" [ 0x100 ]
    (List.map (fun b -> b.Code_cache.cb_src) ev);
  Alcotest.(check (option int)) "victim unmapped" None (Code_cache.lookup cc 0x100);
  Alcotest.(check (option int)) "survivor intact" (Some (0x1000 + 100))
    (Code_cache.lookup cc 0x200);
  Alcotest.(check int) "eviction counted" 1 (Code_cache.evictions cc);
  Alcotest.(check int) "no flushes" 0 (Code_cache.flushes cc);
  (* a block can land flush against the capacity edge *)
  let edge, _ = Code_cache.alloc cc ~align:64 ~src:0x400 ~func:"g" ~size:0x40 ~src_spans:[] () in
  Alcotest.(check int) "aligned claim" 0 (edge mod 64)

let test_code_cache_clock_second_chance () =
  let cc = Code_cache.create ~policy:Code_cache.Clock ~base:0x1000 ~capacity:256 () in
  let alloc src size = Code_cache.alloc cc ~src ~func:"f" ~size ~src_spans:[] () in
  ignore (alloc 0x100 100);
  ignore (alloc 0x200 100);
  (* touch the oldest block: clock must spare it once and take the
     next victim instead *)
  ignore (Code_cache.lookup cc 0x100);
  let a3, ev = alloc 0x300 100 in
  Alcotest.(check (list int)) "referenced block spared" [ 0x200 ]
    (List.map (fun b -> b.Code_cache.cb_src) ev);
  Alcotest.(check int) "claim skipped past the spared block" (0x1000 + 100) a3;
  Alcotest.(check (option int)) "spared block still live" (Some 0x1000)
    (Code_cache.lookup cc 0x100)

let test_config_validation () =
  Alcotest.(check bool) "default valid" true (Config.validate Config.default = Ok ());
  let check_err cfg = Alcotest.(check bool) "invalid" true (Config.validate cfg <> Ok ()) in
  check_err { Config.default with opt_level = 5 };
  check_err { Config.default with pad_bytes = 100 };
  check_err { Config.default with migrate_prob = 1.5 };
  check_err { Config.default with rat_capacity = 0 };
  check_err { Config.default with cache_bytes = 100 }

(* --- VM-level counters --- *)

let test_vm_counters () =
  let w = Workloads.find "bzip2" in
  let sys = System.of_fatbin ~seed:4 ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w) in
  ignore (System.run sys ~fuel:(3 * w.w_fuel));
  let st = Vm.stats (System.vm sys Desc.Cisc) in
  Alcotest.(check bool) "translations happened" true (st.translations > 5);
  Alcotest.(check bool) "instruction expansion >= 1" true (st.emitted_instrs >= st.source_instrs);
  Alcotest.(check bool) "compulsory misses counted" true (st.compulsory_misses > 0);
  Alcotest.(check bool) "patches happened (unit chaining)" true (st.patches > 0)

(* The translation memo stands in for a translation of current
   memory under every policy: under flush it serves re-translations
   after a flush, under fifo/clock it re-installs units. What it lays
   out must equal what the translator would produce from the current
   source bytes — including after the guest rewrites one of them. The
   decode cache is off so only the VM's own watch on the code section
   can notice the rewrite. *)
let test_memo_matches_fresh () =
  let fb = Lazy.force sample_fb in
  List.iter
    (fun policy ->
      let name = Code_cache.policy_name policy in
      let cfg = { Config.default with cc_policy = policy } in
      let sys =
        System.of_fatbin ~cfg ~seed:11 ~start_isa:Desc.Cisc ~mode:System.Psr_only
          ~decode_cache:false fb
      in
      let vm = System.vm sys Desc.Cisc in
      let mem = Machine.mem (System.machine sys) in
      let entry name = (Fatbin.image (Fatbin.find_func fb name) Desc.Cisc).im_entry in
      let a = entry "helper" and b = entry "main" in
      let base = Layout.cisc_cache_base in
      let fresh () =
        Translator.translate cfg Hipstr_cisc.Isa.desc ~read:(Mem.reader mem) ~fatbin:fb
          ~map_of:(Vm.map_of vm) ~src:a ~base
      in
      let check label =
        let u = fresh () in
        Alcotest.(check bool)
          (name ^ ": " ^ label)
          true
          (String.equal u.u_bytes (Mem.read_string mem base u.u_size))
      in
      let enter src =
        Vm.flush vm;
        Vm.enter vm src
      in
      let before = Vm.stats vm in
      let translations0 = before.translations and installs0 = before.memo_installs in
      enter a;
      enter b;
      enter a;
      check "first re-translation";
      enter a;
      check "memo-served unit";
      let u0 = fresh () in
      let lo, len = List.hd u0.u_src_spans in
      let at = lo + len - 1 in
      Mem.write8 mem at (Mem.read8 mem at lxor 0x01);
      Alcotest.(check bool) (name ^ ": the rewrite changes the translation") false
        (String.equal u0.u_bytes (fresh ()).u_bytes);
      enter a;
      check "after a source rewrite";
      let st = Vm.stats vm in
      (* flush charges every entry as a translation; fifo/clock
         re-install the two unchanged re-entries and translate the
         rewritten unit afresh *)
      let translations, installs = if policy = Code_cache.Flush then (5, 0) else (3, 2) in
      Alcotest.(check int) (name ^ ": translations") translations (st.translations - translations0);
      Alcotest.(check int) (name ^ ": memo installs") installs (st.memo_installs - installs0))
    [ Code_cache.Flush; Code_cache.Fifo; Code_cache.Clock ]

let test_hot_regs () =
  let w = Workloads.find "bzip2" in
  let sys = System.of_fatbin ~seed:4 ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w) in
  let fb = System.fatbin sys in
  let vm = System.vm sys Desc.Cisc in
  let hot = Vm.hot_regs vm (Fatbin.find_func fb "rle") in
  Alcotest.(check bool) "some hot registers found" true (List.length hot >= 1);
  List.iter
    (fun r ->
      if not (List.mem r Hipstr_cisc.Isa.desc.allocatable) then
        Alcotest.failf "non-allocatable hot register %d" r)
    hot

(* --- shared register-use counts --- *)

let desc_of = function Desc.Cisc -> Hipstr_cisc.Isa.desc | Desc.Risc -> Hipstr_risc.Isa.desc

(* The ranking [Vm.hot_regs] promises: allocatable registers with at
   least one use, most-used first, ties in allocation order. *)
let rank which counts =
  List.stable_sort
    (fun a b -> compare counts.(b) counts.(a))
    (List.filter (fun r -> counts.(r) > 0) (desc_of which).allocatable)

let memory_counts sys which (fs : Fatbin.func_sym) =
  let im = Fatbin.image fs which in
  Fatbin.count_reg_uses which
    ~read:(Mem.reader (Machine.mem (System.machine sys)))
    ~lo:im.im_entry ~hi:(im.im_entry + im.im_size)

(* The counts decoded at link equal a decode of a freshly booted
   system's memory, for every function of every workload on both ISAs,
   and so does the ranking the VM hands out. *)
let test_reg_uses_match_memory () =
  List.iter
    (fun (w : Workloads.t) ->
      let fb = Workloads.fatbin w in
      let sys = System.of_fatbin ~seed:3 ~mode:System.Hipstr fb in
      Array.iter
        (fun (fs : Fatbin.func_sym) ->
          List.iter
            (fun which ->
              let label = Printf.sprintf "%s/%s %s" w.w_name fs.fs_name (desc_of which).name in
              let decoded = memory_counts sys which fs in
              Alcotest.(check (array int)) (label ^ " counts")
                decoded (Fatbin.image fs which).im_reg_uses;
              Alcotest.(check (list int)) (label ^ " ranking") (rank which decoded)
                (Vm.hot_regs (System.vm sys which) fs))
            [ Desc.Cisc; Desc.Risc ])
        fb.Fatbin.fb_funcs)
    (Workloads.all @ [ Workloads.httpd ])

(* A function whose code the guest rewrote before the VM first ranked
   it must be ranked from memory, not from the binary's counts: fill
   it with moves of its least-used register, which then tops the
   ranking. *)
let test_hot_regs_after_rewrite () =
  let fb = Lazy.force sample_fb in
  let fs = Fatbin.find_func fb "helper" in
  List.iter
    (fun which ->
      let sys = System.of_fatbin ~seed:5 ~start_isa:which ~mode:System.Hipstr fb in
      let im = Fatbin.image fs which in
      let shared = rank which im.im_reg_uses in
      let r = List.hd (List.rev shared) in
      let mov =
        match which with
        | Desc.Cisc -> Hipstr_cisc.Isa.encode ~at:im.im_entry (Minstr.Mov (Reg r, Reg r))
        | Desc.Risc -> Hipstr_risc.Isa.encode ~at:im.im_entry (Minstr.Mov (Reg r, Reg r))
      in
      let n = im.im_size / String.length mov in
      Mem.blit_string
        (Machine.mem (System.machine sys))
        im.im_entry
        (String.concat "" (List.init n (fun _ -> mov)));
      let expected = rank which (memory_counts sys which fs) in
      let label = (desc_of which).name in
      Alcotest.(check bool) (label ^ ": the rewrite changes the ranking") false (expected = shared);
      Alcotest.(check (list int)) (label ^ ": ranked from the rewritten bytes") expected
        (Vm.hot_regs (System.vm sys which) fs))
    [ Desc.Cisc; Desc.Risc ]

let () =
  Alcotest.run "psr-internals"
    [
      ( "reloc-map",
        [
          QCheck_alcotest.to_alcotest prop_locations_distinct;
          QCheck_alcotest.to_alcotest prop_reg_map_injective;
          QCheck_alcotest.to_alcotest prop_register_bias;
          QCheck_alcotest.to_alcotest prop_map_slot_total;
          QCheck_alcotest.to_alcotest prop_map_slot_deterministic;
          QCheck_alcotest.to_alcotest prop_maps_differ_across_seeds;
          Alcotest.test_case "sp and scratch identity" `Quick test_sp_and_scratch_identity;
          Alcotest.test_case "entropy bits" `Quick test_entropy_bits;
        ] );
      ( "translator",
        [
          Alcotest.test_case "translated units decode" `Quick test_translated_unit_decodes;
          Alcotest.test_case "units have exits" `Quick test_translated_unit_has_exits;
          Alcotest.test_case "trap patchability" `Quick test_trap_patchability;
          Alcotest.test_case "wild addresses" `Quick test_wild_address_raises;
        ] );
      ( "cache-and-vm",
        [
          Alcotest.test_case "code cache" `Quick test_code_cache;
          Alcotest.test_case "align boundary" `Quick test_code_cache_align_boundary;
          Alcotest.test_case "exact headroom fit" `Quick test_code_cache_exact_headroom;
          Alcotest.test_case "duplicate src dropped" `Quick test_code_cache_duplicate_src_dropped;
          Alcotest.test_case "fifo eviction" `Quick test_code_cache_fifo_eviction;
          Alcotest.test_case "clock second chance" `Quick test_code_cache_clock_second_chance;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "vm counters" `Quick test_vm_counters;
          Alcotest.test_case "flush memo matches fresh" `Quick test_memo_matches_fresh;
          Alcotest.test_case "hot regs" `Quick test_hot_regs;
          Alcotest.test_case "shared register counts match memory" `Quick
            test_reg_uses_match_memory;
          Alcotest.test_case "hot regs after a code rewrite" `Quick test_hot_regs_after_rewrite;
        ] );
    ]
