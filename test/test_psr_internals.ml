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
module Isa = Hipstr_isa.Isa
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
  let desc = Isa.desc which in
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
      let desc = Isa.desc Desc.Cisc in
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
  let desc = Isa.desc which in
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
  (* memory is as loaded, so the binary's decoded code stands in *)
  Translator.translate Config.default desc ~read
    ~as_loaded:(fun _ -> true)
    ~fatbin:fb ~map_of ~src:entry ~base:(Layout.cache_base which)

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
      let pos = ref (Layout.cache_base which) in
      let stop = Layout.cache_base which + u.u_size in
      while !pos < stop do
        match Isa.decode which ~read !pos with
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
  Alcotest.(check bool) "cisc jmp/trap same size" true (Translator.jmp_same_size (Isa.desc Desc.Cisc));
  Alcotest.(check bool) "risc jmp/trap same size" true (Translator.jmp_same_size (Isa.desc Desc.Risc))

let test_wild_address_raises () =
  let fb = Lazy.force sample_fb in
  let mem = Mem.create Layout.mem_size in
  Fatbin.load fb mem;
  let read a = try Mem.read8 mem a with Mem.Fault _ -> -1 in
  match
    Translator.translate Config.default (Isa.desc Desc.Cisc) ~read
      ~as_loaded:(fun _ -> true)
      ~fatbin:fb
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

(* A system is only built from a config [Config.validate] accepts:
   creation raises [Invalid_argument] with its message. A gobmk psr
   system with a 2 KiB cache once ran, and its first checkpoint then
   refused the config. *)
let test_system_validates_config () =
  let fb = Workloads.fatbin (Workloads.find "gobmk") in
  List.iter
    (fun (label, cfg, mode) ->
      let expected =
        match Config.validate cfg with
        | Error m -> m
        | Ok () -> Alcotest.failf "%s: the config is valid" label
      in
      match System.of_fatbin ~cfg ~seed:3 ~mode fb with
      | exception Invalid_argument m -> Alcotest.(check string) label expected m
      | sys ->
        ignore (System.run sys ~fuel:20_000);
        Alcotest.failf "%s: a system was built and ran %d instructions" label
          (System.instructions sys))
    [
      ("psr, cache_bytes 2048", { Config.default with cache_bytes = 2048 }, System.Psr_only);
      ("hipstr, opt_level 4", { Config.default with opt_level = 4 }, System.Hipstr);
      ("native, rat_capacity 0", { Config.default with rat_capacity = 0 }, System.Native);
    ]

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
        Translator.translate cfg (Isa.desc Desc.Cisc) ~read:(Mem.reader mem)
          ~as_loaded:(fun _ -> false)
          ~fatbin:fb ~map_of:(Vm.map_of vm) ~src:a ~base
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
      if not (List.mem r (Isa.desc Desc.Cisc).allocatable) then
        Alcotest.failf "non-allocatable hot register %d" r)
    hot

(* --- shared register-use counts --- *)

(* The ranking [Vm.hot_regs] promises: allocatable registers with at
   least one use, most-used first, ties in allocation order. *)
let rank which counts =
  List.stable_sort
    (fun a b -> compare counts.(b) counts.(a))
    (List.filter (fun r -> counts.(r) > 0) (Isa.desc which).allocatable)

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
              let label = Printf.sprintf "%s/%s %s" w.w_name fs.fs_name (Isa.name which) in
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
      let mov = Isa.encode which ~at:im.im_entry (Minstr.Mov (Reg r, Reg r)) in
      let n = im.im_size / String.length mov in
      Mem.blit_string
        (Machine.mem (System.machine sys))
        im.im_entry
        (String.concat "" (List.init n (fun _ -> mov)));
      let expected = rank which (memory_counts sys which fs) in
      let label = Isa.name which in
      Alcotest.(check bool) (label ^ ": the rewrite changes the ranking") false (expected = shared);
      Alcotest.(check (list int)) (label ^ ": ranked from the rewritten bytes") expected
        (Vm.hot_regs (System.vm sys which) fs))
    [ Desc.Cisc; Desc.Risc ]

(* --- the binary's decoded code --- *)

(* A linear decode of memory from the function's entry up to its end,
   stopping at the first undecodable byte: each instruction with its
   address and length, and where the decode stopped. *)
let memory_decode which mem (im : Fatbin.image) =
  let read = Mem.reader mem and hi = im.im_entry + im.im_size in
  let rec go pos acc =
    match if pos < hi then Isa.decode which ~read pos else None with
    | Some (i, len) -> go (pos + len) ((pos, i, len) :: acc)
    | None -> (List.rev acc, pos)
  in
  go im.im_entry []

let binaries = Workloads.all @ [ Workloads.httpd ]

(* The shared decoded code equals a decode of the binary's pristine
   memory, instruction by instruction, and stops where it stops; it is
   built once and every instruction start indexes back to itself. *)
let test_decoded_matches_memory () =
  List.iter
    (fun (w : Workloads.t) ->
      let fb = Workloads.fatbin w in
      let mem = Fatbin.baseline fb in
      Array.iter
        (fun (fs : Fatbin.func_sym) ->
          List.iter
            (fun which ->
              let label = Printf.sprintf "%s/%s %s" w.w_name fs.fs_name (Isa.name which) in
              let d = Fatbin.decoded fs which in
              let n = Array.length d.dc_instr in
              let expected, stop = memory_decode which mem (Fatbin.image fs which) in
              let got =
                List.init n (fun k -> (d.dc_addr.(k), d.dc_instr.(k), d.dc_addr.(k + 1) - d.dc_addr.(k)))
              in
              if got <> expected then Alcotest.failf "%s: decoded code differs from memory" label;
              Alcotest.(check int) (label ^ ": stops where memory stops") stop d.dc_addr.(n);
              Alcotest.(check bool) (label ^ ": built once") true (d == Fatbin.decoded fs which);
              for k = 0 to n - 1 do
                let a = d.dc_addr.(k) in
                Alcotest.(check int) (label ^ ": index of a start") k (Fatbin.instr_index d a);
                for a' = a + 1 to d.dc_addr.(k + 1) - 1 do
                  Alcotest.(check int) (label ^ ": index inside an instruction") (-1)
                    (Fatbin.instr_index d a')
                done
              done;
              Alcotest.(check int) (label ^ ": index of the end") (-1) (Fatbin.instr_index d stop))
            [ Desc.Cisc; Desc.Risc ])
        fb.Fatbin.fb_funcs)
    binaries

(* Every function entry, IR block start and call-site return. *)
let unit_sources fb which =
  List.sort_uniq compare
    (List.concat_map
       (fun (fs : Fatbin.func_sym) ->
         let im = Fatbin.image fs which in
         (im.im_entry :: Array.to_list im.im_block_addr)
         @ List.map snd (Array.to_list im.im_callsite_ret))
       (Array.to_list fb.Fatbin.fb_funcs))

let laid_out vm which src =
  match Vm.prepare vm src with
  | p -> Ok (Translator.layout p ~base:(Layout.cache_base which))
  | exception Translator.Wild a -> Error a

(* The translator's output, pinned byte for byte: every function entry
   of every workload, on both ISAs, at O0 and at the default O3, is
   prepared by a fresh VM at a fixed seed (which draws the maps in
   function order) and laid out at the cache base. The digest covers
   each unit's bytes, size, exit stubs, indirect-call sites, source
   spans and instruction counts, so a host-side change to the
   translator, the encoders or map generation that moves one byte of
   guest code fails here, not only through cycle counts. *)
let translation_digest = "92c73db42067ce0d82d1d65d3edf98d2"

let test_translation_digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (w : Workloads.t) ->
      let fb = Workloads.fatbin w in
      List.iter
        (fun opt_level ->
          let cfg = { Config.default with opt_level } in
          let sys = System.of_fatbin ~cfg ~seed:11 ~mode:System.Hipstr fb in
          List.iter
            (fun which ->
              let vm = System.vm sys which in
              Array.iter
                (fun (fs : Fatbin.func_sym) ->
                  let src = (Fatbin.image fs which).im_entry in
                  let u = Translator.layout (Vm.prepare vm src) ~base:(Layout.cache_base which) in
                  Printf.bprintf b "%s/O%d/%s/%s %x %d %d %d\n" w.w_name opt_level (Isa.name which)
                    fs.fs_name u.u_src u.u_size u.u_instrs u.u_emitted;
                  Buffer.add_string b u.u_bytes;
                  List.iter
                    (fun (s : Translator.exit_stub) ->
                      Printf.bprintf b "s%d:%x " s.es_off s.es_target_src)
                    u.u_stubs;
                  List.iter
                    (fun (ic : Translator.icall_site) ->
                      Printf.bprintf b "i%d:%x:%x:%d:%b " ic.is_off ic.is_src ic.is_src_ret ic.is_nargs
                        ic.is_call)
                    u.u_icalls;
                  List.iter (fun (lo, n) -> Printf.bprintf b "p%x+%d " lo n) u.u_src_spans)
                fb.Fatbin.fb_funcs)
            [ Desc.Cisc; Desc.Risc ])
        [ 0; 3 ])
    binaries;
  Alcotest.(check string) "digest of every entry unit" translation_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A unit prepared through the binary's decoded code lays out exactly
   as one prepared from guest memory. The first pass runs on a fresh
   system, whose code is as loaded, so the VM's guard admits the
   decoded code; then every function's entry byte is rewritten with
   its own value, which fails the guard without changing a byte, and
   the second pass decodes memory. *)
let test_prepare_shared_matches_memory () =
  List.iter
    (fun (w : Workloads.t) ->
      let fb = Workloads.fatbin w in
      List.iter
        (fun opt_level ->
          List.iter
            (fun seed ->
              let cfg = { Config.default with opt_level } in
              let sys = System.of_fatbin ~cfg ~seed ~mode:System.Hipstr fb in
              let mem = Machine.mem (System.machine sys) in
              List.iter
                (fun which ->
                  let vm = System.vm sys which in
                  let srcs = unit_sources fb which in
                  let shared = List.map (laid_out vm which) srcs in
                  Array.iter
                    (fun fs ->
                      let at = (Fatbin.image fs which).im_entry in
                      Mem.write8 mem at (Mem.read8 mem at))
                    fb.Fatbin.fb_funcs;
                  List.iter2
                    (fun src u ->
                      if laid_out vm which src <> u then
                        Alcotest.failf "%s O%d seed %d %s: unit 0x%x differs from memory's" w.w_name
                          opt_level seed (Isa.name which) src)
                    srcs shared)
                [ Desc.Cisc; Desc.Risc ])
            [ 1; 2; 3 ])
        [ 0; 3 ])
    binaries

(* A function whose code the guest rewrote before its first
   translation is translated from memory, not from the binary's
   decoded code: change an immediate in the entry segment of [helper],
   enter it, and the installed unit equals [Translator.translate] over
   current memory, which the rewrite changed. *)
let test_translation_after_rewrite () =
  let fb = Lazy.force sample_fb in
  let fs = Fatbin.find_func fb "helper" in
  List.iter
    (fun which ->
      let label = Isa.name which in
      let sys = System.of_fatbin ~seed:5 ~start_isa:which ~mode:System.Hipstr fb in
      let vm = System.vm sys which in
      let mem = Machine.mem (System.machine sys) in
      let d = Fatbin.decoded fs which in
      let bump (i : Minstr.t) : Minstr.t option =
        match i with
        | Mov (d, Imm k) -> Some (Mov (d, Imm (k + 1)))
        | Binop (op, d, Imm k) -> Some (Binop (op, d, Imm (k + 1)))
        | Cmp (a, Imm k) -> Some (Cmp (a, Imm (k + 1)))
        | _ -> None
      in
      (* the first immediate after the prologue, before the entry
         segment's terminator, that re-encodes at the same length *)
      let rec pick k =
        if k >= Array.length d.dc_instr || Minstr.is_control d.dc_instr.(k) then
          Alcotest.failf "%s: no immediate to change in helper's entry segment" label
        else
          let at = d.dc_addr.(k) and len = d.dc_addr.(k + 1) - d.dc_addr.(k) in
          match bump d.dc_instr.(k) with
          | Some i' when String.length (Isa.encode which ~at i') = len -> (at, Isa.encode which ~at i')
          | _ -> pick (k + 1)
      in
      let at, bytes = pick 2 in
      let entry = (Fatbin.image fs which).im_entry in
      let translate ~as_loaded ~base =
        Translator.translate Config.default (Isa.desc which) ~read:(Mem.reader mem) ~as_loaded
          ~fatbin:fb ~map_of:(Vm.map_of vm) ~src:entry ~base
      in
      Mem.blit_string mem at bytes;
      Vm.enter vm entry;
      let base = Option.get (Code_cache.lookup (Vm.cache vm) entry) in
      let fresh = translate ~as_loaded:(fun _ -> false) ~base in
      Alcotest.(check bool) (label ^ ": the rewrite changes the translation") false
        (String.equal fresh.u_bytes (translate ~as_loaded:(fun _ -> true) ~base).u_bytes);
      Alcotest.(check string) (label ^ ": translated from the rewritten bytes") fresh.u_bytes
        (Mem.read_string mem base fresh.u_size))
    [ Desc.Cisc; Desc.Risc ]

(* --- address lookups --- *)

(* The definitions the binary searches must equal: the first function,
   in array order, whose code holds the address; the first block of
   that function starting there; the first call site, over every
   function in array order, returning there. *)
let linear_func_at fb which addr =
  Array.find_opt
    (fun fs ->
      let im = Fatbin.image fs which in
      addr >= im.im_entry && addr < im.im_entry + im.im_size)
    fb.Fatbin.fb_funcs

let linear_block_starting_at fb which addr =
  Option.bind (linear_func_at fb which addr) (fun fs ->
      let im = Fatbin.image fs which in
      let rec go l =
        if l >= Array.length im.im_block_addr then None
        else if im.im_block_addr.(l) = addr then Some (fs, l)
        else go (l + 1)
      in
      go 0)

let linear_callsite_of_ret fb which addr =
  Array.to_list fb.Fatbin.fb_funcs
  |> List.find_map (fun fs ->
         Array.to_list (Fatbin.image fs which).im_callsite_ret
         |> List.find_map (fun (site, ret) -> if ret = addr then Some (fs, site) else None))

let test_lookups_match_linear () =
  let name = Option.map (fun (fs : Fatbin.func_sym) -> fs.fs_name) in
  let named = Option.map (fun ((fs : Fatbin.func_sym), k) -> (fs.fs_name, k)) in
  List.iter
    (fun (w : Workloads.t) ->
      let fb = Workloads.fatbin w in
      List.iter
        (fun which ->
          let label = Printf.sprintf "%s %s" w.w_name (Isa.name which) in
          let ims = Array.map (fun fs -> Fatbin.image fs which) fb.Fatbin.fb_funcs in
          (* the layout the search relies on: array order, disjoint *)
          Array.iteri
            (fun i (im : Fatbin.image) ->
              if i > 0 && im.im_entry < ims.(i - 1).im_entry + ims.(i - 1).im_size then
                Alcotest.failf "%s: function %d overlaps or precedes function %d" label i (i - 1))
            ims;
          let lo = Layout.code_base which in
          let last = ims.(Array.length ims - 1) in
          let hi = last.im_entry + last.im_size in
          let outside = [ 0; lo - 1; hi + 1; hi + 4096; Layout.cache_base which; -1; max_int ] in
          let check addr =
            let at = Printf.sprintf "%s at 0x%x" label addr in
            Alcotest.(check (option string)) (at ^ ": func_at")
              (name (linear_func_at fb which addr))
              (name (Fatbin.func_at fb which addr));
            Alcotest.(check (option (pair string int))) (at ^ ": block_starting_at")
              (named (linear_block_starting_at fb which addr))
              (named (Fatbin.block_starting_at fb which addr));
            Alcotest.(check (option (pair string int))) (at ^ ": callsite_of_ret")
              (named (linear_callsite_of_ret fb which addr))
              (named (Fatbin.callsite_of_ret fb which addr))
          in
          for addr = lo to hi do
            check addr
          done;
          List.iter check outside)
        [ Desc.Cisc; Desc.Risc ])
    binaries

(* --- kept blocks --- *)

module Decode_cache = Hipstr_machine.Decode_cache
module Packed = Hipstr_machine.Packed
module Obs = Hipstr_obs.Obs

(* The bytes a block's decode read: its own, and the look-ahead window
   past them when its decode failed there. *)
let guard_hi (b : Decode_cache.block) =
  if b.db_bad then b.db_end + Decode_cache.max_decode_window else b.db_end

let covers (b : Decode_cache.block) at = b.db_start <= at && at < guard_hi b

(* A new decode of current memory at the block's address, from an
   empty cache. *)
let decode_now fresh (b : Decode_cache.block) =
  Decode_cache.invalidate_all fresh;
  match Decode_cache.find fresh b.db_start with
  | f -> Some f
  | exception Not_found -> None

(* The block is a decode of current memory: a new decode at its
   address yields its instructions first, and fails where it failed.
   Where a block without a bad verdict stops decides only where the
   dispatcher probes next, so a new decode may run on past its end:
   into a stub patched since, say. *)
let agrees_with_memory fresh (b : Decode_cache.block) =
  match decode_now fresh b with
  | None -> false
  | Some f ->
    let n = Array.length b.db_code in
    Array.length f.db_code >= n
    && Array.sub f.db_code 0 n = b.db_code
    && ((not b.db_bad) || (f.db_bad && f.db_end = b.db_end))

let outcome_string = function
  | System.Finished c -> Printf.sprintf "finished(%d)" c
  | System.Out_of_fuel -> "out_of_fuel"
  | System.Killed m -> "killed(" ^ m ^ ")"
  | System.Shell_spawned -> "shell"

let check_same_run label ~fast_end ~oracle_end fast oracle =
  Alcotest.(check string) (label ^ ": outcome") (outcome_string oracle_end)
    (outcome_string fast_end);
  Alcotest.(check (list int)) (label ^ ": output") (System.output oracle) (System.output fast);
  Alcotest.(check int) (label ^ ": instructions") (System.instructions oracle)
    (System.instructions fast);
  Alcotest.(check int64) (label ^ ": cycle bits")
    (Int64.bits_of_float (System.cycles oracle))
    (Int64.bits_of_float (System.cycles fast))

let tiny_flush = { Config.default with cache_bytes = 4096; cc_policy = Code_cache.Flush }

let boot_tiny ?(name = "gobmk") ?(seed = 5) decode_cache =
  System.of_fatbin ~obs:Obs.disabled ~cfg:tiny_flush ~seed ~start_isa:Desc.Cisc
    ~mode:System.Psr_only ~decode_cache
    (Workloads.fatbin (Workloads.find name))

let is_trap_block (b : Decode_cache.block) =
  Array.length b.db_code = 4
  &&
  match Packed.unpack b.db_code.(0) b.db_code.(1) b.db_code.(2) with
  | Minstr.Trap _, _ -> true
  | _ -> false

(* The harvest guard. Under a 4 KiB flush-policy cache nearly every
   translation flushes, and a memo-served unit's next install adopts
   the decoded blocks the flush kept. The run goes in slices; a block
   still in the decode table after a flush emptied it was kept and
   adopted. Once the live unit shows an adopted block, one byte of it
   is rewritten in place, and the run steps one instruction at a time
   up to the next flush, collecting every block whose guard covers the
   byte. Two cases:
   - [~changed:false] writes the byte's own value at the block's start:
     the guest behaves as before and the bytes are as they were, so
     the block stays fresh, and some block covering the byte is kept
     and adopted again;
   - [~changed:true] flips the last byte of an adopted one-instruction
     Trap block, the stub's operand, which the VM never reads (it finds
     stubs by address): the block goes stale. The re-install writes the
     unit's own byte back, so a block decoded from the changed byte
     must never be adopted; one that was would differ from a new decode
     of the restored bytes. (The Trap's own step usually flushes, so
     such a block is rarely seen in the table before its harvest.)
   In both, every adopted block still fresh equals a new decode of
   current memory at its address ([db_code], [db_end], [db_bad],
   [db_indirect]), and the run matches the per-instruction decode
   oracle, which got the same write at the same instruction, bit for
   bit. *)
let kept_blocks_rewrite ~changed () =
  let w = Workloads.find "gobmk" in
  let fast = boot_tiny true and oracle = boot_tiny false in
  let mem = Machine.mem (System.machine fast) in
  let dc = Option.get (Machine.decode_cache (System.machine fast) Desc.Cisc) in
  let cache = Vm.cache (System.vm fast Desc.Cisc) in
  let fresh = Decode_cache.create Desc.Cisc mem in
  let decodes_fresh (b : Decode_cache.block) =
    match decode_now fresh b with
    | Some f ->
      f.db_code = b.db_code && f.db_end = b.db_end && f.db_bad = b.db_bad
      && f.db_indirect = b.db_indirect
    | None -> false
  in
  (* first sighting of each block object, with the flush count then *)
  let seen = Hashtbl.create 1024 in
  let first_seen (b : Decode_cache.block) =
    List.find_map
      (fun (b', fl) -> if b' == b then Some fl else None)
      (Hashtbl.find_all seen b.db_start)
  in
  let dirtied = ref [] and adopted = ref 0 and readopted = ref 0 in
  (* Check the resident blocks; return the adopted ones. *)
  let observe () =
    let fl = Code_cache.flushes cache in
    List.filter
      (fun (b : Decode_cache.block) ->
        match first_seen b with
        | None ->
          Hashtbl.add seen b.db_start (b, fl);
          false
        | Some fl' when fl' < fl ->
          incr adopted;
          if List.memq b !dirtied then begin
            if changed then
              Alcotest.failf "a block decoded from the changed byte at 0x%x was adopted"
                b.db_start;
            incr readopted
          end;
          if (not (Decode_cache.stale b)) && not (decodes_fresh b) then
            Alcotest.failf "adopted block at 0x%x differs from a fresh decode" b.db_start;
          true
        | Some _ -> false)
      (Decode_cache.blocks dc)
  in
  let live_unit () =
    match Code_cache.blocks cache with
    | [ u ] -> u
    | us -> Alcotest.failf "%d live units in a 4 KiB flush cache" (List.length us)
  in
  let fast_end = ref System.Out_of_fuel in
  let run sys fuel =
    let o = System.run sys ~fuel in
    if sys == fast then fast_end := o;
    o = System.Out_of_fuel
  in
  (* warm up, then slice until the live unit holds an adopted block *)
  ignore (run fast 40_000);
  ignore (observe ());
  let rec find_target () =
    if not (run fast 200) then Alcotest.fail "finished before a memo-served unit showed up";
    let u = live_unit () in
    match
      List.find_opt
        (fun (b : Decode_cache.block) ->
          b.db_start >= u.cb_cache
          && b.db_end <= u.cb_cache + u.cb_size
          && ((not changed) || is_trap_block b))
        (observe ())
    with
    | Some b -> (u, b)
    | None -> find_target ()
  in
  let target, b = find_target () in
  let at = if changed then b.db_end - 1 else b.db_start in
  let value = Mem.read8 mem at lxor if changed then 1 else 0 in
  ignore (run oracle (System.instructions fast));
  Alcotest.(check int) "oracle at the same instruction" (System.instructions fast)
    (System.instructions oracle);
  let before = Decode_cache.blocks dc in
  List.iter (fun sys -> Mem.write8 (Machine.mem (System.machine sys)) at value) [ fast; oracle ];
  Alcotest.(check bool) "only a changed byte makes the block stale" changed (Decode_cache.stale b);
  (* the blocks covering the byte that hold the written value: after a
     changing write, those decoded since *)
  let covering () =
    List.filter
      (fun (b : Decode_cache.block) -> covers b at && not (changed && List.memq b before))
      (Decode_cache.blocks dc)
  in
  let flushes0 = Code_cache.flushes cache in
  dirtied := covering ();
  while run fast 1 && Code_cache.flushes cache = flushes0 do
    dirtied := List.filter (fun b -> not (List.memq b !dirtied)) (covering ()) @ !dirtied
  done;
  if (not changed) && !dirtied = [] then
    Alcotest.fail "no decoded block covered the rewritten byte";
  let adopted_before = !adopted and reinstalled = ref 0 in
  while System.instructions fast < 3 * w.w_fuel && run fast 100 do
    ignore (observe ());
    if
      List.exists
        (fun (u : Code_cache.block) -> u.cb_src = target.cb_src)
        (Code_cache.blocks cache)
    then incr reinstalled
  done;
  ignore (observe ());
  if !reinstalled = 0 then Alcotest.fail "the rewritten unit never came back";
  if !adopted = adopted_before then Alcotest.fail "no block was adopted after the rewrite";
  if not changed then
    Alcotest.(check bool) "a block the same-value write covered was kept and adopted again" true
      (!readopted > 0);
  let oracle_end = System.run oracle ~fuel:(3 * w.w_fuel) in
  check_same_run "the oracle" ~fast_end:!fast_end ~oracle_end fast oracle

(* Exits start their own block, so a chain patch rewrites only its
   stub's block. A workload in psr mode under a 4 KiB flush-policy
   cache steps one instruction at a time; a step that makes a VM patch
   ran the trap at the pc it started from, which now holds a jump.
   Every block that ended at that stub before the step (the unit's
   body in front of it) is still in the decode table after the patch,
   fresh, and equal to a new decode of memory at its start, which may
   run on only into the patched jump. 20 patches are checked on gobmk,
   whose patched stubs all follow a call, and on bzip2 the run goes on
   until some checked block fell through into its stub: a body block
   that the exit rule ended before the Trap rather than at a control
   transfer of its own. *)
let chain_patch_keeps_body name ~fall_through =
  let w = Workloads.find name in
  let sys = boot_tiny ~name true in
  let m = System.machine sys in
  let mem = Machine.mem m in
  let dc = Option.get (Machine.decode_cache m Desc.Cisc) in
  let vm = System.vm sys Desc.Cisc in
  let fresh = Decode_cache.create Desc.Cisc mem in
  let checked = ref 0 and patches_seen = ref 0 and fell_through = ref 0 in
  let last_is_control (b : Decode_cache.block) =
    let j = Array.length b.db_code - 4 in
    j >= 0
    && Minstr.is_control (fst (Packed.unpack b.db_code.(j) b.db_code.(j + 1) b.db_code.(j + 2)))
  in
  ignore (System.run sys ~fuel:20_000);
  while
    (!checked < 20 || (fall_through && !fell_through = 0))
    && System.instructions sys < w.w_fuel
    &&
    let pc = (Machine.cpu m).pc and patches = (Vm.stats vm).patches in
    let body =
      List.filter (fun (b : Decode_cache.block) -> b.db_end = pc) (Decode_cache.blocks dc)
    in
    let o = System.run sys ~fuel:1 in
    if (Vm.stats vm).patches > patches then begin
      incr patches_seen;
      (match Isa.decode Desc.Cisc ~read:(Mem.reader mem) pc with
      | Some (Minstr.Jmp _, _) -> ()
      | _ -> Alcotest.failf "%s: the stub at 0x%x holds no jump after its patch" name pc);
      List.iter
        (fun (b : Decode_cache.block) ->
          let at =
            Printf.sprintf "%s: the block at 0x%x before the stub at 0x%x" name b.db_start pc
          in
          if not (List.memq b (Decode_cache.blocks dc)) then
            Alcotest.failf "%s left the decode table" at;
          if Decode_cache.stale b then Alcotest.failf "%s went stale" at;
          (match decode_now fresh b with
          | None -> Alcotest.failf "%s: no new decode" at
          | Some f ->
            let n = Array.length b.db_code in
            let runs_into_jump =
              Array.length f.db_code = n + 4
              && f.db_end > pc
              &&
              match Packed.unpack f.db_code.(n) f.db_code.(n + 1) f.db_code.(n + 2) with
              | Minstr.Jmp _, _ -> true
              | _ -> false
            in
            if
              not
                (Array.length f.db_code >= n
                && Array.sub f.db_code 0 n = b.db_code
                && (Array.length f.db_code = n || runs_into_jump))
            then Alcotest.failf "%s differs from a new decode" at);
          if not (last_is_control b) then incr fell_through)
        body;
      if body <> [] then incr checked
    end;
    o = System.Out_of_fuel
  do
    ()
  done;
  if !patches_seen = 0 then Alcotest.failf "%s: the run made no chain patch" name;
  Alcotest.(check bool) (name ^ ": a patched stub had a body block in front of it") true
    (!checked > 0);
  if fall_through then
    Alcotest.(check bool) (name ^ ": a body block fell through into its patched stub") true
      (!fell_through > 0)

let test_chain_patch_keeps_body () =
  chain_patch_keeps_body "gobmk" ~fall_through:false;
  chain_patch_keeps_body "bzip2" ~fall_through:true

(* Random writes into live units. gobmk in psr mode under a 4 KiB
   flush-policy cache runs in random slices on the fast path and on
   the decode oracle side by side. After each slice one byte of the
   live unit is written in both systems at the same instruction: its
   own value (half the writes), a changed value that is put back before
   the run goes on, or (one write in eight) a changed value that stays,
   which the guest may then run into. Right after a changing write
   every block whose guard covers the byte is stale. After every write
   and every slice, each block the stamps or the byte check keep fresh
   agrees with a new decode of memory. A run ends after 150 writes or
   when the guest stops, and runs on new seeds follow until 300 writes
   were made. Some block a same-value or put-back write covered must
   have been kept, and each run matches the oracle's bit for bit. *)
let test_random_unit_writes () =
  let kept = ref 0 and writes = ref 0 and seed = ref 0 in
  while !writes < 300 do
    incr seed;
    if !seed > 20 then Alcotest.failf "only %d writes in 20 runs" !writes;
    let label = Printf.sprintf "seed %d" !seed in
    let g = Rng.create (100 + !seed) in
    let fast = boot_tiny ~seed:!seed true and oracle = boot_tiny ~seed:!seed false in
    let mems = List.map (fun sys -> Machine.mem (System.machine sys)) [ fast; oracle ] in
    let mem = List.hd mems in
    let dc = Option.get (Machine.decode_cache (System.machine fast) Desc.Cisc) in
    let cache = Vm.cache (System.vm fast Desc.Cisc) in
    let fresh = Decode_cache.create Desc.Cisc mem in
    let write at v = List.iter (fun m -> Mem.write8 m at v) mems in
    let check_fresh_blocks when_ =
      List.iter
        (fun (b : Decode_cache.block) ->
          if (not (Decode_cache.stale b)) && not (agrees_with_memory fresh b) then
            Alcotest.failf "%s, %s: the fresh block at 0x%x disagrees with memory" label when_
              b.db_start)
        (Decode_cache.blocks dc)
    in
    let count_kept at =
      List.iter
        (fun (b : Decode_cache.block) ->
          if covers b at && not (Decode_cache.stale b) then incr kept)
        (Decode_cache.blocks dc)
    in
    let fast_end = ref System.Out_of_fuel and oracle_end = ref System.Out_of_fuel in
    let run_writes = ref 0 in
    while !run_writes < 150 && !fast_end = System.Out_of_fuel do
      let fuel = 200 + Rng.int g 1800 in
      fast_end := System.run fast ~fuel;
      oracle_end := System.run oracle ~fuel;
      check_fresh_blocks "after a slice";
      match Code_cache.blocks cache with
      | [] -> ()
      | u :: _ ->
        incr run_writes;
        let at = u.cb_cache + Rng.int g u.cb_size in
        let v = Mem.read8 mem at in
        let flip = v lxor (1 + Rng.int g 255) in
        let check_stale () =
          List.iter
            (fun (b : Decode_cache.block) ->
              if covers b at && not (Decode_cache.stale b) then
                Alcotest.failf "%s: the block at 0x%x survived a change to 0x%x" label b.db_start
                  at)
            (Decode_cache.blocks dc)
        in
        (match Rng.int g 8 with
        | 0 | 1 | 2 | 3 ->
          write at v;
          count_kept at
        | 4 | 5 | 6 ->
          write at flip;
          check_stale ();
          write at v;
          count_kept at
        | _ ->
          write at flip;
          check_stale ());
        check_fresh_blocks "after a write"
    done;
    writes := !writes + !run_writes;
    check_same_run label ~fast_end:!fast_end ~oracle_end:!oracle_end fast oracle
  done;
  Alcotest.(check bool) "the byte check kept some block a write covered" true (!kept > 0)

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
          Alcotest.test_case "systems validate their config" `Quick test_system_validates_config;
          Alcotest.test_case "vm counters" `Quick test_vm_counters;
          Alcotest.test_case "flush memo matches fresh" `Quick test_memo_matches_fresh;
          Alcotest.test_case "hot regs" `Quick test_hot_regs;
          Alcotest.test_case "shared register counts match memory" `Quick
            test_reg_uses_match_memory;
          Alcotest.test_case "hot regs after a code rewrite" `Quick test_hot_regs_after_rewrite;
          Alcotest.test_case "decoded code matches memory" `Quick test_decoded_matches_memory;
          Alcotest.test_case "prepare from the binary matches prepare from memory" `Quick
            test_prepare_shared_matches_memory;
          Alcotest.test_case "translation after a code rewrite reads memory" `Quick
            test_translation_after_rewrite;
          Alcotest.test_case "address lookups match the linear scan" `Quick
            test_lookups_match_linear;
          Alcotest.test_case "kept blocks: harvest guard" `Quick
            (kept_blocks_rewrite ~changed:false);
          Alcotest.test_case "translator digest over every workload" `Quick test_translation_digest;
          Alcotest.test_case "kept blocks: a changed byte is never adopted" `Quick
            (kept_blocks_rewrite ~changed:true);
          Alcotest.test_case "a chain patch leaves the body block" `Quick
            test_chain_patch_keeps_body;
          Alcotest.test_case "random writes into live units" `Quick test_random_unit_writes;
        ] );
    ]
