let table_size = 4096
let btb_size = 1024
let ras_depth = 32

type t = {
  counters : int array; (* 2-bit saturating *)
  btb : int array;
  ras : int array;
  mutable ras_top : int;
  mutable mispredicts : int;
  mutable lookups : int;
}

let flush t =
  Array.fill t.counters 0 table_size 1;
  Array.fill t.btb 0 btb_size (-1);
  Array.fill t.ras 0 ras_depth (-1);
  t.ras_top <- 0

(* [create] allocates and then resets: untrained tables, counts 0. *)
let reset t =
  flush t;
  t.mispredicts <- 0;
  t.lookups <- 0

let create () =
  let t =
    {
      counters = Array.make table_size 0;
      btb = Array.make btb_size 0;
      ras = Array.make ras_depth 0;
      ras_top = 0;
      mispredicts = 0;
      lookups = 0;
    }
  in
  reset t;
  t

let note t correct =
  t.lookups <- t.lookups + 1;
  if not correct then t.mispredicts <- t.mispredicts + 1;
  correct

(* The saturating update is written as integer branches: Stdlib's
   [min]/[max] are polymorphic, and each call would reach the C
   [caml_lessequal]/[caml_greaterequal] on every conditional branch. *)
let predict_cond t ~pc ~taken =
  let i = pc land (table_size - 1) in
  let c = t.counters.(i) in
  let predicted = c >= 2 in
  t.counters.(i) <- (if taken then (if c < 3 then c + 1 else 3) else if c > 0 then c - 1 else 0);
  note t (predicted = taken)

let predict_indirect t ~pc ~target =
  let i = pc land (btb_size - 1) in
  let predicted = t.btb.(i) in
  t.btb.(i) <- target;
  note t (predicted = target)

let push_ras t addr =
  t.ras.(t.ras_top mod ras_depth) <- addr;
  t.ras_top <- t.ras_top + 1

let predict_return t ~target =
  if t.ras_top = 0 then note t false
  else begin
    t.ras_top <- t.ras_top - 1;
    note t (t.ras.(t.ras_top mod ras_depth) = target)
  end

let mispredicts t = t.mispredicts
let lookups t = t.lookups

(* --- snapshot ------------------------------------------------------ *)
(* Predictions are cycle-visible (mispredict penalties), so the whole
   structure is carried exactly: counters, BTB, RAS and the counters.
   The 2-bit counters travel as single bytes. [ras_top] indexes the
   return-address stack modulo its depth, so it must not be negative. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let sync io t =
  let io = Wire.section io "BPRED" in
  Wire.bytes_into io "counters" ~hi:3 t.counters;
  Wire.into io "btb" t.btb;
  Wire.into io "ras" t.ras;
  t.ras_top <- Wire.field io "ras_top" C.nat t.ras_top;
  t.mispredicts <- Wire.field io "mispredicts" C.int t.mispredicts;
  t.lookups <- Wire.field io "lookups" C.int t.lookups

let restore t r = sync (Wire.reading r) t
