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
   The 2-bit counters travel as single bytes. *)

module Wire = Hipstr_util.Wire

let save w t =
  Wire.tag w "BPRED";
  Array.iter (fun c -> Wire.u8 w c) t.counters;
  Wire.int_array w t.btb;
  Wire.int_array w t.ras;
  Wire.int w t.ras_top;
  Wire.int w t.mispredicts;
  Wire.int w t.lookups

let restore t r =
  Wire.expect_tag r "BPRED";
  for i = 0 to table_size - 1 do
    let c = Wire.r_u8 r in
    if c > 3 then Wire.corrupt "branch predictor counter %d is %d, not a 2-bit value" i c;
    t.counters.(i) <- c
  done;
  let btb = Wire.r_int_array r in
  let ras = Wire.r_int_array r in
  if Array.length btb <> btb_size || Array.length ras <> ras_depth then
    Wire.corrupt "branch predictor geometry mismatch (btb %d, ras %d)" (Array.length btb)
      (Array.length ras);
  let ras_top = Wire.r_int r in
  if ras_top < 0 then Wire.corrupt "negative return-address stack top %d" ras_top;
  Array.blit btb 0 t.btb 0 btb_size;
  Array.blit ras 0 t.ras 0 ras_depth;
  t.ras_top <- ras_top;
  t.mispredicts <- Wire.r_int r;
  t.lookups <- Wire.r_int r
