type flags = { mutable zf : bool; mutable sf : bool; mutable cf : bool; mutable vf : bool }

(* Integer cycle accounting: the canonical accumulator counts
   femtocycles — fixed-point cycle units at [fc_scale] = 2^20 per
   cycle. Every charge in the simulator is an integer number of
   femtocycles (quotients and penalties are converted once, at
   machine/decode-cache creation), so accumulation is exact integer
   addition with no per-instruction float work and no allocation.

   The scale is a power of two, which makes the fold-back to the
   canonical float cycle count *exact*: [float_of_int fc / 2^20]
   only adjusts the exponent as long as [fc] fits a double's mantissa
   ([fc] < 2^53, i.e. < 2^33 ~ 8.6e9 cycles — far above any run).
   Every consumer of cycles (spans, scheduling clocks, exports,
   snapshots) reads the same fold-back of the same integer, so cycle
   floats are bit-identical across execution variants and job counts
   by construction. *)

let fc_scale = 1 lsl 20

let fc_per_cycle_f = float_of_int fc_scale

(* Femtocycles for a float cycle cost (VM service costs, migration
   charges). Round-to-nearest of the scaled value: deterministic, and
   exact whenever the cost is representable in 2^-20 cycle units. *)
let fc_of_cycles c = int_of_float (Float.round (c *. fc_per_cycle_f))

(* Exact fold-back (see above). *)
let cycles_of_fc fc = float_of_int fc /. fc_per_cycle_f

(* Femtocycles for [lat / throughput]: the per-retirement charge
   quotient, rounded once. Shared by [Machine.env_of] and the packed
   block encoder so both paths charge the same integer. *)
let fc_quotient ~lat ~throughput = fc_of_cycles (float_of_int lat /. throughput)

type perf = {
  mutable cycles_fc : int;  (** femtocycles; [cycles] folds back *)
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable calls : int;
  mutable returns : int;
  mutable indirects : int;
  mutable syscalls : int;
}

type t = { mutable pc : int; regs : int array; flags : flags; perf : perf }

let cycles p = cycles_of_fc p.cycles_fc

let fresh_perf () =
  {
    cycles_fc = 0;
    instructions = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    calls = 0;
    returns = 0;
    indirects = 0;
    syscalls = 0;
  }

let create () =
  {
    pc = 0;
    regs = Array.make 16 0;
    flags = { zf = false; sf = false; cf = false; vf = false };
    perf = fresh_perf ();
  }
