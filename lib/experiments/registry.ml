type experiment = {
  ex_id : string;
  ex_title : string;
  ex_paper : string;
  ex_run : unit -> Hipstr_util.Table.t;
}

let all =
  [
    {
      ex_id = "table1";
      ex_title = "Table 1: architecture detail for the ARM and x86 cores";
      ex_paper = "ARM Cortex A-9 class at 2 GHz; x86 Xeon class at 3.3 GHz";
      ex_run = Exp_security.table1;
    };
    {
      ex_id = "fig3";
      ex_title = "Figure 3: classic ROP attack surface (obfuscated vs unobfuscated)";
      ex_paper = "PSR obfuscates 98.04% of classic ROP gadgets on average";
      ex_run = Exp_security.fig3_classic_rop;
    };
    {
      ex_id = "fig4";
      ex_title = "Figure 4: brute-force attack surface (eliminated vs surviving)";
      ex_paper = "15.83% of gadgets remain viable for brute force on average";
      ex_run = Exp_security.fig4_brute_force_surface;
    };
    {
      ex_id = "table2";
      ex_title = "Table 2: brute-force simulation (Algorithm 1)";
      ex_paper = "6.5-6.9 params, ~87 bits, ~1e33-1e34 attempts: computationally infeasible";
      ex_run = Exp_security.table2_brute_force;
    };
    {
      ex_id = "fig5";
      ex_title = "Figure 5: JIT-ROP attack surface on PSR and HIPStR";
      ex_paper = "294 survive PSR, 267 flag the VM, ~27 avoid migration: execve infeasible";
      ex_run = Exp_security.fig5_jitrop;
    };
    {
      ex_id = "fig6";
      ex_title = "Figure 6: migration-safe basic blocks";
      ex_paper = "~78% of blocks migration-safe with on-demand migration (45% baseline)";
      ex_run = Exp_performance.fig6_migration_safety;
    };
    {
      ex_id = "fig7";
      ex_title = "Figure 7: entropy vs gadget-chain length";
      ex_paper = "Isomeron/het-ISA alone: 2^n; PSR-based systems saturate the 1024 cap";
      ex_run = Exp_security.fig7_entropy;
    };
    {
      ex_id = "fig8";
      ex_title = "Figure 8: tailored attacks vs diversification probability";
      ex_paper = "at p=1 HIPStR keeps ~2 gadgets while PSR+Isomeron keeps hundreds";
      ex_run = Exp_security.fig8_tailored;
    };
    {
      ex_id = "fig9";
      ex_title = "Figure 9: steady-state performance at PSR optimization levels";
      ex_paper = "O2 register cache +13%, register bias +5.5%, final overhead 13.14%";
      ex_run = Exp_performance.fig9_opt_levels;
    };
    {
      ex_id = "fig10";
      ex_title = "Figure 10: effect of additional stack memory (PSR-S8..S64)";
      ex_paper = "only 2.96% further drop at 64 KB frames (sparse frames are cheap)";
      ex_run = Exp_performance.fig10_stack_sizes;
    };
    {
      ex_id = "fig11";
      ex_title = "Figure 11: effect of RAT size on performance";
      ex_paper = "0.37% overhead at 32 entries; free at 512+";
      ex_run = Exp_performance.fig11_rat_sizes;
    };
    {
      ex_id = "fig12";
      ex_title = "Figure 12: migration overhead at random checkpoints";
      ex_paper = "909 us ARM->x86, 1.287 ms x86->ARM";
      ex_run = Exp_performance.fig12_migration_overhead;
    };
    {
      ex_id = "fig13";
      ex_title = "Figure 13: effect of code cache size on migration overhead";
      ex_paper = "no security-induced migrations once the cache holds the working set";
      ex_run = Exp_performance.fig13_cache_sizes;
    };
    {
      ex_id = "fig14";
      ex_title = "Figure 14: performance comparison with Isomeron";
      ex_paper = "HIPStR outperforms Isomeron by ~15.6% across diversification probabilities";
      ex_run = Exp_performance.fig14_vs_isomeron;
    };
    {
      ex_id = "ablation-pad";
      ex_title = "Ablation: randomization-pad size vs entropy (security side of Fig 10)";
      ex_paper = "2-16 pages of pad = 13-16 bits per relocated parameter (Section 5.1)";
      ex_run = Exp_security.ablation_pad_entropy;
    };
    {
      ex_id = "httpd";
      ex_title = "Section 7.1: the httpd case study (with a live exploit)";
      ex_paper = "99.7% obfuscated; 1.8e32 attempts; 84 JIT-ROP gadgets, 2 survive migration";
      ex_run = Exp_security.httpd_case_study;
    };
  ]

let find id = List.find_opt (fun e -> e.ex_id = id) all

(* One experiment's printed form, as a string, so a parallel sweep
   can buffer each output and print them in registry order,
   byte-identical to the serial path. *)
let output_of e =
  let table = e.ex_run () in
  Printf.sprintf "\n%s\n%s\n%s(paper: %s)\n" e.ex_title
    (String.make (String.length e.ex_title) '=')
    (Hipstr_util.Table.render table)
    e.ex_paper

let run_many ?jobs es = Hipstr_cmp.Pool.map ?jobs output_of es
