(* Cross-ISA execution migration, live: start a workload on the x86
   core, force a migration mid-run, and watch it finish on the ARM
   core with identical output — then quantify the migration's cost,
   as in Figure 12.

     dune exec examples/migration_demo.exe *)

module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Machine = Hipstr_machine.Machine
module Core_desc = Hipstr_machine.Core_desc
module Transform = Hipstr_migration.Transform
module Safety = Hipstr_migration.Safety
module Workloads = Hipstr_workloads.Workloads

let isa_name which = (Core_desc.for_isa which).name

let () =
  let w = Workloads.find "hmmer" in
  Printf.printf "workload: %s (%s)\n\n" w.w_name w.w_description;

  (* Reference run, never migrating. *)
  let reference = System.of_fatbin ~start_isa:Desc.Cisc ~mode:System.Native (Workloads.fatbin w) in
  ignore (System.run reference ~fuel:(3 * w.w_fuel));
  let expected = System.output reference in

  (* HIPStR run with a forced migration halfway. *)
  let cfg = { Config.default with migrate_prob = 0.0 } in
  let sys = System.of_fatbin ~cfg ~seed:7 ~start_isa:Desc.Cisc ~mode:System.Hipstr (Workloads.fatbin w) in
  Printf.printf "started on %s\n" (isa_name (Machine.active (System.machine sys)));
  (match System.run sys ~fuel:100_000 with
  | System.Out_of_fuel -> ()
  | _ -> failwith "finished before the checkpoint");
  Printf.printf "checkpoint at %d instructions; requesting migration...\n" (System.instructions sys);
  System.request_migration sys;
  (match System.run sys ~fuel:(3 * w.w_fuel) with
  | System.Finished _ -> ()
  | o ->
    failwith
      (match o with
      | System.Killed m -> "killed: " ^ m
      | System.Out_of_fuel -> "out of fuel"
      | _ -> "unexpected"));
  Printf.printf "finished on %s\n\n" (isa_name (Machine.active (System.machine sys)));
  (match System.last_migration sys with
  | Some r ->
    Printf.printf "the migration transformed %d stack frames (%d words moved)\n"
      r.Transform.r_frames r.Transform.r_words;
    Printf.printf "cost: %.0f cycles on the destination core (~%.0f us at 2 GHz)\n"
      r.Transform.r_cycles
      (r.Transform.r_cycles /. 2000.)
  | None -> print_endline "no migration recorded?!");
  Printf.printf "\noutput identical to the never-migrated run: %b\n"
    (System.output sys = expected);

  (* Static migration-safety, as in Figure 6. *)
  let fb = Workloads.fatbin w in
  let sc = Safety.summarize fb ~from_isa:Desc.Cisc in
  let sr = Safety.summarize fb ~from_isa:Desc.Risc in
  Printf.printf "\nmigration-safe basic blocks (on-demand): x86->ARM %.1f%%, ARM->x86 %.1f%%\n"
    (100. *. Safety.fraction_ondemand sc)
    (100. *. Safety.fraction_ondemand sr)
