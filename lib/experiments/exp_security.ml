module Table = Hipstr_util.Table
module Stats = Hipstr_util.Stats
module Workloads = Hipstr_workloads.Workloads
module Surface = Hipstr_attacks.Surface
module Brute_force = Hipstr_attacks.Brute_force
module Jitrop = Hipstr_attacks.Jitrop
module Tailored = Hipstr_attacks.Tailored
module Entropy = Hipstr_attacks.Entropy
module Rop = Hipstr_attacks.Rop
module Galileo = Hipstr_galileo.Galileo
module Config = Hipstr_psr.Config
module Core_desc = Hipstr_machine.Core_desc
module System = Hipstr.System
module Mem = Hipstr_machine.Mem
module Fatbin = Hipstr_compiler.Fatbin
open Hipstr_isa

let table1 () =
  let t = Table.create [ "core"; "freq"; "fetch"; "issue"; "ROB"; "LQ/SQ"; "I$/D$" ] in
  List.iter
    (fun (c : Core_desc.t) ->
      Table.add_row t
        [
          c.name;
          Printf.sprintf "%.1f GHz" c.freq_ghz;
          string_of_int c.fetch_width;
          string_of_int c.issue_width;
          string_of_int c.rob_size;
          Printf.sprintf "%d/%d" c.lq_size c.sq_size;
          Printf.sprintf "%d/%d KB %d-way" c.icache_size_kb c.dcache_size_kb c.cache_assoc;
        ])
    [ Core_desc.arm; Core_desc.x86 ];
  t

let fig3_classic_rop () =
  let t =
    Table.create [ "benchmark"; "gadgets"; "obfuscated"; "unobfuscated"; "obf %"; "unintentional" ]
  in
  let fracs = ref [] in
  List.iter
    (fun w ->
      let r = Harness.surface_of w in
      let obf = Surface.obfuscated_fraction r in
      fracs := obf :: !fracs;
      Table.add_row t
        [
          r.r_name;
          string_of_int r.r_total;
          Printf.sprintf "%.1f" (float_of_int r.r_total -. r.r_unobfuscated);
          Printf.sprintf "%.1f" r.r_unobfuscated;
          Stats.percent obf;
          string_of_int r.r_unintentional;
        ])
    Harness.with_httpd;
  Table.add_row t [ "average"; ""; ""; ""; Stats.percent (Stats.mean !fracs); "" ];
  t

let fig4_brute_force_surface () =
  let t = Table.create [ "benchmark"; "gadgets"; "eliminated"; "surviving"; "viable %" ] in
  let fracs = ref [] in
  List.iter
    (fun w ->
      let r = Harness.surface_of w in
      let vf = Surface.viable_fraction r in
      fracs := vf :: !fracs;
      Table.add_row t
        [
          r.r_name;
          string_of_int r.r_total;
          string_of_int (r.r_total - r.r_viable);
          string_of_int r.r_viable;
          Stats.percent vf;
        ])
    Harness.with_httpd;
  Table.add_row t [ "average"; ""; ""; ""; Stats.percent (Stats.mean !fracs) ];
  t

let table2_brute_force () =
  let t =
    Table.create
      [ "benchmark"; "params (avg)"; "entropy (bits)"; "attempts (no bias)"; "attempts (bias)" ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      let r = Brute_force.simulate ~name:w.w_name (Harness.surface_of w) in
      Table.add_row t
        [
          r.bf_name;
          Printf.sprintf "%.2f" r.bf_params_avg;
          Printf.sprintf "%.0f" r.bf_entropy_bits;
          Stats.human_big r.bf_attempts_nobias;
          Stats.human_big r.bf_attempts_bias;
        ])
    Harness.spec_workloads;
  t

let fig5_jitrop () =
  let t =
    Table.create
      [
        "benchmark";
        "static";
        "in cache (JIT-ROP)";
        "flagging";
        "survive migration";
        "final residue";
        "execve feasible";
      ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      let r = Jitrop.analyze ~name:w.w_name w ~seed:5 in
      Table.add_row t
        [
          r.jr_name;
          string_of_int r.jr_static_total;
          string_of_int r.jr_in_cache;
          string_of_int r.jr_flagging;
          string_of_int r.jr_survive_migration;
          string_of_int r.jr_final;
          (if r.jr_execve_feasible then "YES (!)" else "no");
        ])
    Harness.with_httpd;
  t

let fig7_entropy () =
  let curves = Entropy.all ~cfg:Config.default ~max_chain:12 in
  let t =
    Table.create ("chain length" :: List.map (fun (c : Entropy.curve) -> c.label) curves)
  in
  for n = 1 to 12 do
    Table.add_row t
      (string_of_int n
      :: List.map
           (fun (c : Entropy.curve) -> Printf.sprintf "%.0f" (List.assoc n c.values))
           curves)
  done;
  t

(* Code-cache gadget effects of a steady-state PSR run (the input set
   for the tailored-attack curves). *)
let cache_effects (w : Workloads.t) =
  let sys =
    System.of_fatbin ~seed:7 ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w)
  in
  (match System.run sys ~fuel:(3 * w.w_fuel) with
  | System.Finished _ -> ()
  | _ -> failwith "fig8: workload failed");
  let vm = System.vm sys Desc.Cisc in
  let mem = Hipstr_machine.Machine.mem (System.machine sys) in
  let read = Mem.reader mem in
  let ranges =
    List.map
      (fun (b : Hipstr_psr.Code_cache.block) -> (b.cb_cache, b.cb_size))
      (Hipstr_psr.Code_cache.blocks (Hipstr_psr.Vm.cache vm))
  in
  Galileo.mine ~read ~which:Desc.Cisc ~ranges ()
  |> List.filter (fun g -> g.Galileo.g_kind = Galileo.Ret_gadget)
  |> List.map (Galileo.classify ~sp:7)

let fig8_tailored () =
  let effects = cache_effects Workloads.httpd in
  let probs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  let techniques =
    [ Tailored.Isomeron_only; Tailored.Psr_only; Tailored.Psr_isomeron; Tailored.Hipstr ]
  in
  let curves =
    List.map
      (fun tech -> Tailored.curve tech ~base_gadgets:effects ~psr_gadgets:effects ~probs)
      techniques
  in
  let t = Table.create ("diversification p" :: List.map (fun c -> c.Tailored.t_label) curves) in
  List.iter
    (fun p ->
      Table.add_row t
        (Printf.sprintf "%.1f" p
        :: List.map
             (fun c ->
               let pt = List.find (fun q -> q.Tailored.p_prob = p) c.Tailored.t_points in
               Printf.sprintf "%.1f" pt.Tailored.p_surface)
             curves))
    probs;
  t

let httpd_case_study () =
  let w = Workloads.httpd in
  let fb = Workloads.fatbin w in
  let r = Harness.surface_of w in
  let bf = Brute_force.simulate ~name:"httpd" r in
  let jr = Jitrop.analyze ~name:"httpd" w ~seed:9 in
  let chain = Rop.build_chain (Fatbin.baseline fb) fb Desc.Cisc ~victim_func:"handle_request" in
  let live outcome_of =
    match chain with
    | None -> "no chain"
    | Some c -> (
      match outcome_of c with
      | Rop.Shell -> "SHELL SPAWNED"
      | Rop.Crashed m -> "crashed (" ^ m ^ ")"
      | Rop.Survived -> "absorbed (ran to completion)")
  in
  let native_outcome =
    live (fun c ->
        Rop.deliver (System.of_fatbin ~start_isa:Desc.Cisc ~mode:System.Native fb) c ~fuel:2_000_000)
  in
  let psr_outcome =
    live (fun c ->
        Rop.deliver (System.of_fatbin ~seed:3 ~start_isa:Desc.Cisc ~mode:System.Psr_only fb) c
          ~fuel:4_000_000)
  in
  let hipstr_outcome =
    live (fun c ->
        Rop.deliver
          (System.of_fatbin
             ~cfg:{ Config.default with migrate_prob = 1.0 }
             ~seed:3 ~start_isa:Desc.Cisc ~mode:System.Hipstr fb)
          c ~fuel:4_000_000)
  in
  let t = Table.create [ "metric"; "value" ] in
  Table.add_row t [ "total gadgets"; string_of_int r.r_total ];
  Table.add_row t [ "obfuscated by PSR"; Stats.percent (Surface.obfuscated_fraction r) ];
  Table.add_row t [ "brute-force attempts"; Stats.human_big bf.bf_attempts_nobias ];
  Table.add_row t [ "gadgets available to JIT-ROP"; string_of_int jr.jr_in_cache ];
  Table.add_row t [ "survive heterogeneous-ISA migration"; string_of_int jr.jr_survive_migration ];
  Table.add_row t [ "final residue"; string_of_int jr.jr_final ];
  Table.add_row t
    [ "execve feasible from residue"; (if jr.jr_execve_feasible then "yes" else "no") ];
  Table.add_row t [ "live exploit vs native"; native_outcome ];
  Table.add_row t [ "live exploit vs PSR"; psr_outcome ];
  Table.add_row t [ "live exploit vs HIPStR"; hipstr_outcome ];
  t


(* Ablation (DESIGN.md): the pad-size dial trades entropy against
   stack footprint. Security side of the Figure 10 sweep. *)
let ablation_pad_entropy () =
  let t =
    Table.create
      [ "pad"; "bits/param"; "entropy/gadget (bits)"; "attempts (no bias)"; "nop-gadget entropy" ]
  in
  List.iter
    (fun pad_bytes ->
      let cfg = { Config.default with pad_bytes } in
      let report =
        Surface.analyze ~cfg ~seed:1 ~name:"httpd" (Workloads.fatbin Workloads.httpd) Desc.Cisc
      in
      let bf = Brute_force.simulate ~cfg ~name:"httpd" report in
      let bits = Hipstr_psr.Reloc_map.entropy_bits_per_param cfg in
      Table.add_row t
        [
          Printf.sprintf "%d KB" (pad_bytes / 1024);
          Printf.sprintf "%.0f" bits;
          Printf.sprintf "%.0f" bf.bf_entropy_bits;
          Stats.human_big bf.bf_attempts_nobias;
          Printf.sprintf "%.0f bits" bits;
        ])
    [ 2048; 8192; 32768; 65536 ];
  t
