(* Differential fuzzing: randomly generated MiniC programs must
   produce identical print traces on every execution configuration —
   native CISC, native RISC, PSR (multiple seeds), and HIPStR with
   forced migration probability 1. This is the strongest correctness
   property the system has: the whole pipeline (parser, compiler, both
   backends, interpreter, PSR translator, relocation maps, migration)
   sits under it. *)

module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config

let fuel = 4_000_000

let run_config ?cfg ?decode_cache src ~mode ~isa ~seed =
  match System.create ?cfg ?decode_cache ~seed ~start_isa:isa ~mode ~src () with
  | exception Hipstr_compiler.Compile.Error m -> Error ("compile: " ^ m)
  | sys -> (
    match System.run sys ~fuel with
    | System.Finished _ -> Ok (System.output sys)
    | System.Killed m -> Error ("killed: " ^ m)
    | System.Shell_spawned -> Error "shell"
    | System.Out_of_fuel -> Error "fuel")

let always_migrate = { Config.default with migrate_prob = 1.0 }
let sometimes_migrate = { Config.default with migrate_prob = 0.5 }

(* HIPSTR_FUZZ_CC_CAPACITY shrinks the code cache for the eviction
   configs below, so fuzzed programs exercise wrap-around, victim
   invalidation and the translation memo under real capacity
   pressure. The floor is Config.validate's 4096. *)
let fuzz_cc_capacity () =
  match Sys.getenv_opt "HIPSTR_FUZZ_CC_CAPACITY" with
  | None | Some "" -> 8192
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 4096 -> n
    | _ -> failwith ("bad HIPSTR_FUZZ_CC_CAPACITY: " ^ s))

let tiny_fifo =
  { Config.default with cache_bytes = fuzz_cc_capacity (); cc_policy = Hipstr_psr.Code_cache.Fifo }

let tiny_clock =
  {
    Config.default with
    cache_bytes = fuzz_cc_capacity ();
    cc_policy = Hipstr_psr.Code_cache.Clock;
  }

let tiny_flush = { Config.default with cache_bytes = fuzz_cc_capacity () }

let check_program seed =
  let src = Progen.generate seed in
  let configs =
    [
      ("native-cisc", System.Native, Desc.Cisc, 1, None, true);
      ("native-risc", System.Native, Desc.Risc, 1, None, true);
      ("psr-cisc-a", System.Psr_only, Desc.Cisc, 1 + (seed * 7), None, true);
      ("psr-cisc-b", System.Psr_only, Desc.Cisc, 2 + (seed * 13), None, true);
      ("psr-risc", System.Psr_only, Desc.Risc, 3 + seed, None, true);
      ("hipstr", System.Hipstr, Desc.Cisc, 4 + seed, Some always_migrate, true);
      ("hipstr-risc", System.Hipstr, Desc.Risc, 5 + (seed * 3), Some always_migrate, true);
      ("hipstr-mid", System.Hipstr, Desc.Cisc, 6 + (seed * 11), Some sometimes_migrate, true);
      ("psr-tiny-flush", System.Psr_only, Desc.Cisc, 7 + (seed * 5), Some tiny_flush, true);
      ("psr-tiny-fifo", System.Psr_only, Desc.Cisc, 7 + (seed * 5), Some tiny_fifo, true);
      ("psr-tiny-clock", System.Psr_only, Desc.Risc, 8 + (seed * 9), Some tiny_clock, true);
      ("hipstr-tiny-fifo", System.Hipstr, Desc.Cisc, 9 + (seed * 17),
       Some { tiny_fifo with migrate_prob = 1.0 }, true);
      (* the per-instruction decode oracle on the churniest config:
         same seed, same tiny eviction cache as psr-tiny-fifo, only
         the engine differs — the chained packed loop against the
         path it must match, per program *)
      ("psr-tiny-fifo-oracle", System.Psr_only, Desc.Cisc, 7 + (seed * 5), Some tiny_fifo, false);
    ]
  in
  let results =
    List.map
      (fun (label, mode, isa, s, cfg, decode_cache) ->
        (label, run_config ?cfg ~decode_cache src ~mode ~isa ~seed:s))
      configs
  in
  match results with
  | (_, Ok reference) :: rest ->
    List.iter
      (fun (label, r) ->
        match r with
        | Ok out ->
          if out <> reference then
            Alcotest.failf "seed %d: %s diverged\nprogram:\n%s\nexpected %s got %s" seed label src
              (String.concat "," (List.map string_of_int reference))
              (String.concat "," (List.map string_of_int out))
        | Error e -> Alcotest.failf "seed %d: %s failed (%s)\nprogram:\n%s" seed label e src)
      rest
  | (_, Error e) :: _ -> Alcotest.failf "seed %d: reference run failed (%s)\nprogram:\n%s" seed e src
  | [] -> ()

(* HIPSTR_FUZZ_JOBS > 1 fans the seeds of a batch across domains via
   the deterministic pool; each seed is fully independent (own
   compile, own machines), and the systems run on Obs.disabled, the
   [?obs] default, which records nothing. *)
let fuzz_jobs () =
  match Sys.getenv_opt "HIPSTR_FUZZ_JOBS" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> failwith ("bad HIPSTR_FUZZ_JOBS: " ^ s))

let test_fuzz_batch lo hi () =
  let seeds = List.init (hi - lo + 1) (fun i -> lo + i) in
  ignore (Hipstr_cmp.Pool.map ~jobs:(fuzz_jobs ()) check_program seeds)

let test_generated_programs_nontrivial () =
  (* sanity on the generator itself: programs compile and do work *)
  let sizes = ref [] in
  for seed = 1 to 10 do
    let src = Progen.generate seed in
    sizes := String.length src :: !sizes;
    match run_config src ~mode:System.Native ~isa:Desc.Cisc ~seed:1 with
    | Ok out -> Alcotest.(check int) "prints two values" 2 (List.length out)
    | Error e -> Alcotest.failf "seed %d failed: %s" seed e
  done;
  Alcotest.(check bool) "programs vary in size" true
    (List.length (List.sort_uniq compare !sizes) > 3)

(* HIPSTR_FUZZ_SEEDS overrides the seed range: "N" means 1-N, "LO-HI"
   an explicit range. CI uses it to trade coverage for wall clock. *)
let seed_range () =
  match Sys.getenv_opt "HIPSTR_FUZZ_SEEDS" with
  | None | Some "" -> (1, 100)
  | Some s -> (
    match String.index_opt s '-' with
    | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some lo, Some hi when lo >= 1 && hi >= lo -> (lo, hi)
      | _ -> failwith ("bad HIPSTR_FUZZ_SEEDS: " ^ s))
    | None -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> (1, n)
      | _ -> failwith ("bad HIPSTR_FUZZ_SEEDS: " ^ s)))

let () =
  let lo, hi = seed_range () in
  (* batches of 25 seeds; everything past the second batch is `Slow so
     the default alcotest run stays quick *)
  let batches =
    let rec go i acc =
      if i > hi then List.rev acc
      else
        let j = min hi (i + 24) in
        let speed = if i - lo >= 50 then `Slow else `Quick in
        let case =
          Alcotest.test_case (Printf.sprintf "programs %d-%d" i j) speed (test_fuzz_batch i j)
        in
        go (j + 1) (case :: acc)
    in
    go lo []
  in
  Alcotest.run "fuzz"
    [
      ( "differential",
        Alcotest.test_case "generator sanity" `Quick test_generated_programs_nontrivial :: batches
      );
    ]
