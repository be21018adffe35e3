(* Block chaining and indirect-branch inline caches.

   Chaining is a host-only optimization layered on the predecoded
   block cache: direct-branch terminators get generation-checked
   successor links, indirect terminators get a mono->poly inline
   cache keyed by target pc. The link-maintenance machinery
   (back-patching, severing on staleness, epoch invalidation, IC
   promotion and megamorphic refusal) gets unit coverage here, and
   two machine-level runs check it against the churn sources that
   must break chains (self-modifying code, context-switch flushes)
   by comparing with the per-instruction decode oracle. The
   workload-wide fast-path/oracle differentials, which also check
   that links were really patched and broken under eviction churn,
   live in test_interp. *)

module Mem = Hipstr_machine.Mem
module Layout = Hipstr_machine.Layout
module Machine = Hipstr_machine.Machine
module Decode_cache = Hipstr_machine.Decode_cache
module Desc = Hipstr_isa.Desc
module Minstr = Hipstr_isa.Minstr
module Isa = Hipstr_isa.Isa
module Obs = Hipstr_obs.Obs

let assemble mem at instrs =
  List.fold_left
    (fun pos i ->
      let s = Isa.encode Desc.Cisc ~at:pos i in
      Mem.blit_string mem pos s;
      pos + String.length s)
    at instrs

let lookup_exn dc pc =
  match Decode_cache.find dc pc with
  | b -> b
  | exception Not_found -> Alcotest.failf "pc %#x not cacheable" pc

(* [pred] has a followable link for [pc]. *)
let follows dc pred pc = Decode_cache.follow_idx dc pred pc >= 0

(* ------------------------------------------------------------------ *)
(* Unit: direct links — patch, follow, sever, epoch *)

let test_direct_patch_follow () =
  let mem = Mem.create Layout.mem_size in
  let dc = Decode_cache.create Desc.Cisc mem in
  let base = Layout.cisc_code_base in
  let b_at = base + 64 in
  ignore (assemble mem base [ Minstr.Mov (Reg 0, Imm 1); Minstr.Jmp b_at ]);
  ignore (assemble mem b_at [ Minstr.Mov (Reg 1, Imm 2); Minstr.Jmp base ]);
  let a = lookup_exn dc base in
  let b = lookup_exn dc b_at in
  Alcotest.(check bool) "jmp terminator is direct" false a.Decode_cache.db_indirect;
  let st = Decode_cache.stats dc in
  (* no link yet: follow misses without counting a direct break *)
  Alcotest.(check bool) "unpatched follow misses" false (follows dc a b_at);
  Alcotest.(check int) "no break on empty succs" 0 st.Decode_cache.chain_breaks;
  Decode_cache.patch dc a ~pc:b_at b;
  Alcotest.(check int) "patch counted" 1 st.Decode_cache.chain_patches;
  (match Decode_cache.follow_idx dc a b_at with
  | -1 -> Alcotest.fail "patched follow missed"
  | i ->
    Alcotest.(check bool) "follow returns the patched block" true
      (a.Decode_cache.db_succs.(i).sc_blk == b));
  Alcotest.(check int) "follow counted" 1 st.Decode_cache.chain_follows;
  (* a different target pc does not match the link *)
  Alcotest.(check bool) "wrong pc misses" false (follows dc a base);
  (* write into the successor's region: the link must sever *)
  Mem.write8 mem (b_at + 1) 0x90;
  Alcotest.(check bool) "stale target not followed" false (follows dc a b_at);
  Alcotest.(check int) "break counted" 1 st.Decode_cache.chain_breaks;
  (* severed for good, not re-checked every time *)
  Alcotest.(check int) "entry removed" 0 (Array.length a.Decode_cache.db_succs)

let test_epoch_invalidation () =
  let mem = Mem.create Layout.mem_size in
  let dc = Decode_cache.create Desc.Cisc mem in
  let base = Layout.cisc_code_base in
  let b_at = base + 64 in
  ignore (assemble mem base [ Minstr.Jmp b_at ]);
  ignore (assemble mem b_at [ Minstr.Jmp base ]);
  let a = lookup_exn dc base in
  let b = lookup_exn dc b_at in
  Decode_cache.patch dc a ~pc:b_at b;
  let e0 = Decode_cache.epoch dc in
  Decode_cache.invalidate_all dc;
  Alcotest.(check bool) "flush bumps the epoch" true (Decode_cache.epoch dc > e0);
  (* the target block is *not* stale (no write happened) — only the
     epoch guard can reject the link *)
  Alcotest.(check bool) "target unmodified" false (Decode_cache.stale b);
  Alcotest.(check bool) "old-epoch link dead" false (follows dc a b_at);
  Alcotest.(check int) "break counted" 1 (Decode_cache.stats dc).Decode_cache.chain_breaks

(* ------------------------------------------------------------------ *)
(* Unit: indirect inline caches — mono -> poly -> megamorphic *)

let test_ic_promotion () =
  let mem = Mem.create Layout.mem_size in
  let dc = Decode_cache.create Desc.Cisc mem in
  let base = Layout.cisc_code_base in
  (* pred ends in an indirect jump through r1 *)
  ignore (assemble mem base [ Minstr.Mov (Reg 0, Imm 7); Minstr.Jmpr (Reg 1) ]);
  let targets = List.init 5 (fun i -> base + 128 + (i * 32)) in
  List.iter (fun at -> ignore (assemble mem at [ Minstr.Jmp base ])) targets;
  let pred = lookup_exn dc base in
  Alcotest.(check bool) "jmpr terminator is indirect" true pred.Decode_cache.db_indirect;
  let st = Decode_cache.stats dc in
  let t1 = List.nth targets 0 and t2 = List.nth targets 1 in
  (* monomorphic *)
  Decode_cache.patch dc pred ~pc:t1 (lookup_exn dc t1);
  Alcotest.(check bool) "mono hit" true (follows dc pred t1);
  Alcotest.(check int) "counted as mono" 1 st.Decode_cache.ic_mono_hits;
  (* a probe for an uncached target counts an IC miss *)
  Alcotest.(check bool) "unknown target misses" false (follows dc pred t2);
  Alcotest.(check int) "ic miss counted" 1 st.Decode_cache.ic_misses;
  (* polymorphic after the second install *)
  Decode_cache.patch dc pred ~pc:t2 (lookup_exn dc t2);
  Alcotest.(check bool) "poly hit t1" true (follows dc pred t1);
  Alcotest.(check bool) "poly hit t2" true (follows dc pred t2);
  Alcotest.(check int) "counted as poly" 2 st.Decode_cache.ic_poly_hits;
  Alcotest.(check int) "mono count frozen" 1 st.Decode_cache.ic_mono_hits;
  (* fill to capacity (4), then the fifth target goes megamorphic:
     the IC keeps its live entries and refuses the newcomer *)
  List.iter
    (fun t -> Decode_cache.patch dc pred ~pc:t (lookup_exn dc t))
    (List.filteri (fun i _ -> i >= 2) targets);
  Alcotest.(check int) "capped at max_ic_succs" 4 (Array.length pred.Decode_cache.db_succs);
  let t5 = List.nth targets 4 in
  Alcotest.(check bool) "megamorphic target not cached" true
    (Array.for_all (fun s -> s.Decode_cache.sc_pc <> t5) pred.Decode_cache.db_succs);
  (* the first four still hit *)
  Alcotest.(check bool) "cached targets still hit" true
    (follows dc pred t1 && follows dc pred t2)

(* ------------------------------------------------------------------ *)
(* Machine: self-modifying code must break a followed chain mid-trace.

   The predecessor lives in the code section and the rewritten
   successor in the (also watched) code-cache region: a write there
   leaves the predecessor fresh, so the hot link survives until
   [follow] re-validates the target's generation and severs it — the
   [chain_breaks] path, distinct from the same-region case where the
   predecessor itself goes stale and is simply dropped. *)

let test_self_modify_breaks_chain () =
  let setup m =
    let mem = Machine.mem m in
    let a_at = Layout.cisc_code_base in
    let b_at = Layout.cisc_cache_base in
    ignore (assemble mem a_at [ Minstr.Binop (Add, Reg 0, Imm 1); Minstr.Jmp b_at ]);
    ignore (assemble mem b_at [ Minstr.Binop (Add, Reg 1, Imm 1); Minstr.Jmp a_at ]);
    Machine.boot m ~entry:a_at;
    (mem, b_at)
  in
  let run ~decode_cache =
    let m = Machine.create ~obs:Obs.disabled ~decode_cache ~active:Desc.Cisc () in
    let mem, b_at = setup m in
    ignore (Machine.run m ~fuel:100);
    (* the A->B link is hot; now rewrite B's body in place *)
    ignore (assemble mem b_at [ Minstr.Binop (Add, Reg 1, Imm 16) ]);
    ignore (Machine.run m ~fuel:100);
    let cpu = Machine.cpu m in
    (cpu.regs.(0), cpu.regs.(1), Machine.instructions m, Machine.cycles m,
     Machine.decode_cache_stats m Desc.Cisc)
  in
  let r0_c, r1_c, i_c, cy_c, st_c = run ~decode_cache:true in
  let r0_o, r1_o, i_o, cy_o, _ = run ~decode_cache:false in
  Alcotest.(check int) "r0 identical" r0_o r0_c;
  Alcotest.(check int) "r1 identical" r1_o r1_c;
  Alcotest.(check int) "instructions identical" i_o i_c;
  Alcotest.(check bool) "cycles identical" true (cy_c = cy_o);
  (* 100 fuel of the 4-instruction loop, then 100 more with B at +16 *)
  Alcotest.(check int) "r1 reflects the rewrite" (25 + (25 * 16)) r1_c;
  match st_c with
  | None -> Alcotest.fail "expected a decode cache"
  | Some st ->
    Alcotest.(check bool) "chains were followed" true (st.Decode_cache.chain_follows > 0);
    Alcotest.(check bool) "the rewrite severed a link" true (st.Decode_cache.chain_breaks > 0)

(* Context-switch flushes bump the epoch wholesale; interleaving them
   with run slices must stay invisible, and the chained run must
   re-patch after every flush. *)
let test_context_switch_churn () =
  let run ~decode_cache =
    let m = Machine.create ~obs:Obs.disabled ~decode_cache ~active:Desc.Cisc () in
    let mem = Machine.mem m in
    let base = Layout.cisc_code_base in
    let b_at = base + 64 in
    ignore (assemble mem base [ Minstr.Binop (Add, Reg 0, Imm 3); Minstr.Jmp b_at ]);
    ignore (assemble mem b_at [ Minstr.Binop (Xor, Reg 0, Imm 5); Minstr.Jmp base ]);
    Machine.boot m ~entry:base;
    for _ = 1 to 8 do
      ignore (Machine.run m ~fuel:50);
      Machine.context_switch_flush m
    done;
    ignore (Machine.run m ~fuel:50);
    let cpu = Machine.cpu m in
    (cpu.regs.(0), Machine.instructions m, Machine.cycles m, Machine.decode_cache_stats m Desc.Cisc)
  in
  let r0_c, i_c, cy_c, st_c = run ~decode_cache:true in
  let r0_o, i_o, cy_o, _ = run ~decode_cache:false in
  Alcotest.(check int) "r0 identical" r0_o r0_c;
  Alcotest.(check int) "instructions identical" i_o i_c;
  Alcotest.(check bool) "cycles identical" true (cy_c = cy_o);
  match st_c with
  | None -> Alcotest.fail "expected a decode cache"
  | Some st ->
    Alcotest.(check bool) "re-patched after each flush" true
      (st.Decode_cache.chain_patches >= 8)

let () =
  Alcotest.run "chain"
    [
      ( "units",
        [
          Alcotest.test_case "direct patch/follow/sever" `Quick test_direct_patch_follow;
          Alcotest.test_case "epoch invalidation" `Quick test_epoch_invalidation;
          Alcotest.test_case "ic mono->poly->megamorphic" `Quick test_ic_promotion;
        ] );
      ( "machine",
        [
          Alcotest.test_case "self-modify breaks chain" `Quick test_self_modify_breaks_chain;
          Alcotest.test_case "context-switch churn" `Quick test_context_switch_churn;
        ] );
    ]
