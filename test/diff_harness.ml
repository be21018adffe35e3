(* Reusable differential-equality harness.

   Every host-side fast path in this codebase (predecoded blocks with
   their chaining and inline caches, code-cache eviction policies)
   rides on the same acceptance invariant: two runs that differ only
   in a host optimization must be *bit-identical* in everything the
   simulation defines — outcome, program output, instruction count,
   the exact cycle float (no reordering or re-association of a single
   charge), suspicious-transfer count, migration count. This module
   is the one place that invariant is written down; test_interp and
   test_psr check through it.

   Some differentials deliberately compare less: the eviction-policy
   differential (flush vs fifo vs clock) changes *simulated* behavior
   (retranslation costs differ by design), so it masks out
   instructions and cycles and keeps the observational fields. The
   [mask] record says which fields a given differential promises. *)

module System = Hipstr.System

type fingerprint = {
  fp_outcome : string;
  fp_output : int list;
  fp_instructions : int;
  fp_cycles : float;
  fp_suspicious : int;
  fp_migrations : int;
}

type mask = {
  m_outcome : bool;
  m_output : bool;
  m_instructions : bool;
  m_cycles : bool;
  m_suspicious : bool;
  m_migrations : bool;
}

(* Full bit-identity: the fast path (decode cache, chaining, inline
   caches) must match the oracle on every field. *)
let bit_identical =
  {
    m_outcome = true;
    m_output = true;
    m_instructions = true;
    m_cycles = true;
    m_suspicious = true;
    m_migrations = true;
  }

(* Observational equality: for differentials whose variants are
   allowed to spend different simulated time (e.g. eviction policies
   retranslate different amounts) but must agree on everything a
   program or its security monitor can see. *)
let observational = { bit_identical with m_instructions = false; m_cycles = false }

let outcome_string = function
  | System.Finished c -> Printf.sprintf "finished(%d)" c
  | System.Shell_spawned -> "shell"
  | System.Killed m -> "killed: " ^ m
  | System.Out_of_fuel -> "out-of-fuel"

let fingerprint sys outcome =
  {
    fp_outcome = outcome_string outcome;
    fp_output = System.output sys;
    fp_instructions = System.instructions sys;
    fp_cycles = System.cycles sys;
    fp_suspicious = System.suspicious_events sys;
    fp_migrations = System.security_migrations sys + System.forced_migrations sys;
  }

let check ?(mask = bit_identical) label a b =
  let s l = Alcotest.(check string) (label ^ ": " ^ l) in
  let i l = Alcotest.(check int) (label ^ ": " ^ l) in
  if mask.m_outcome then s "outcome" a.fp_outcome b.fp_outcome;
  if mask.m_output then Alcotest.(check (list int)) (label ^ ": output") a.fp_output b.fp_output;
  if mask.m_instructions then i "instructions" a.fp_instructions b.fp_instructions;
  (* exact float equality — a fast path must not reorder or
     re-associate a single cycle charge *)
  if mask.m_cycles && a.fp_cycles <> b.fp_cycles then
    Alcotest.failf "%s: cycles diverged (%.17g vs %.17g)" label a.fp_cycles b.fp_cycles;
  if mask.m_suspicious then i "suspicious" a.fp_suspicious b.fp_suspicious;
  if mask.m_migrations then i "migrations" a.fp_migrations b.fp_migrations

(* Run a system to completion under an isolated (or disabled) obs
   context and fingerprint it. *)
let run_sys sys ~fuel =
  let outcome = System.run sys ~fuel in
  fingerprint sys outcome
