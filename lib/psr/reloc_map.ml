module Rng = Hipstr_util.Rng
module Stats = Hipstr_util.Stats
module Fatbin = Hipstr_compiler.Fatbin
module Ir = Hipstr_compiler.Ir
module Frame = Hipstr_compiler.Frame
open Hipstr_isa

type loc = Lreg of int | Lpad of int

type t = {
  rm_fname : string;
  rm_frame : Frame.t;
  rm_pad : int;
  rm_frame' : int;
  rm_ret_off : int;
  rm_out_off : int;
  rm_locals_off : int;
  rm_scratch_off : int;
  rm_vm_temp : int;
  rm_slot_off : (int, int) Hashtbl.t; (* original value-slot offset -> relocated *)
  rm_arg_off : int array;
  rm_reg_map : loc array; (* indexed by register; identity for non-allocatable *)
  rm_hash_key : int;
  rm_nregs_in_regs : int;
}

let padded_frame t = t.rm_frame'
let pad t = t.rm_pad
let ret_off t = t.rm_ret_off
let vm_temp_off t = t.rm_vm_temp
let arg_off t j = if j < Array.length t.rm_arg_off then t.rm_arg_off.(j) else t.rm_ret_off - 4
let regs_in_registers t = t.rm_nregs_in_regs

let entropy_bits_per_param (cfg : Config.t) = Stats.log2 (float_of_int (cfg.pad_bytes / 4))

(* Non-overlapping random placement of sized objects in [0, limit),
   word-aligned. The pad dwarfs the object set, so rejection sampling
   terminates quickly. *)
let place rng ~limit ~used size =
  let words = (size + 3) / 4 in
  let rec try_at attempts =
    if attempts > 10_000 then failwith "reloc_map: placement failed (pad too small)";
    let off = 4 * Rng.int rng (limit / 4) in
    let fits = off + size <= limit in
    let free =
      fits
      &&
      let ok = ref true in
      for w = 0 to words - 1 do
        if Hashtbl.mem used (off + (4 * w)) then ok := false
      done;
      !ok
    in
    if free then begin
      for w = 0 to words - 1 do
        Hashtbl.replace used (off + (4 * w)) ()
      done;
      off
    end
    else try_at (attempts + 1)
  in
  try_at 0

let generate (cfg : Config.t) rng (desc : Desc.t) (fs : Fatbin.func_sym) ~hot_regs =
  let frame = fs.fs_frame in
  let pad = cfg.pad_bytes in
  let frame' = frame.frame_bytes + pad in
  (* The top 16 bytes stay reserved: the CISC call pushes the return
     address at [frame' - 4] before the prologue relocates it. *)
  let limit = frame' - 16 in
  let used = Hashtbl.create 64 in
  let outgoing_bytes = Int.max 4 (4 * frame.outgoing_words) in
  let out_off = place rng ~limit ~used outgoing_bytes in
  let locals_off =
    if frame.locals_bytes > 0 then place rng ~limit ~used frame.locals_bytes else 0
  in
  let scratch_off = place rng ~limit ~used 8 in
  (* 8 words: up to four temp-register spill slots, the indirect-call
     target slot at +16, and spares. *)
  let vm_temp = place rng ~limit ~used 32 in
  let ret_off = place rng ~limit ~used 4 in
  let slot_tbl = Hashtbl.create 32 in
  Array.iter
    (fun off -> if off >= 0 then Hashtbl.replace slot_tbl off (place rng ~limit ~used 4))
    frame.slot_off;
  let nparams = List.length fs.fs_ir.Ir.fn_params in
  let args = Array.init nparams (fun _ -> place rng ~limit ~used 4) in
  (* Register reallocation. *)
  let allocatable = Array.of_list desc.allocatable in
  let n = Array.length allocatable in
  let keep = Hashtbl.create 8 in
  (* Base policy: high randomization pressure; most registers go to
     the pad. *)
  Array.iter (fun r -> if Rng.float rng < 0.25 then Hashtbl.replace keep r ()) allocatable;
  if cfg.opt_level >= 2 then
    List.iteri (fun i r -> if i < 3 then Hashtbl.replace keep r ()) hot_regs;
  if cfg.opt_level >= 3 then begin
    let order = Array.copy allocatable in
    Rng.shuffle rng order;
    let i = ref 0 in
    while Hashtbl.length keep < Int.min 3 n && !i < n do
      Hashtbl.replace keep order.(!i) ();
      incr i
    done
  end;
  let kept = Array.of_list (List.filter (Hashtbl.mem keep) (Array.to_list allocatable)) in
  (* Injective random assignment of kept registers onto registers. *)
  let targets = Array.copy allocatable in
  Rng.shuffle rng targets;
  let reg_map = Array.init 16 (fun r -> Lreg r) in
  Array.iteri (fun i r -> reg_map.(r) <- Lreg targets.(i)) kept;
  Array.iter
    (fun r -> if not (Hashtbl.mem keep r) then reg_map.(r) <- Lpad (place rng ~limit ~used 4))
    allocatable;
  {
    rm_fname = fs.fs_name;
    rm_frame = frame;
    rm_pad = pad;
    rm_frame' = frame';
    rm_ret_off = ret_off;
    rm_out_off = out_off;
    rm_locals_off = locals_off;
    rm_scratch_off = scratch_off;
    rm_vm_temp = vm_temp;
    rm_slot_off = slot_tbl;
    rm_arg_off = args;
    rm_reg_map = reg_map;
    rm_hash_key = Rng.bits32 rng;
    rm_nregs_in_regs = Array.length kept;
  }

let map_reg t r = if r >= 0 && r < 16 then t.rm_reg_map.(r) else Lreg r

(* Keyed hash for offsets that match no known object: deterministic
   within the epoch, uniform over the usable pad. *)
let hash_off t k =
  let h = (k * 0x9E3779B1) lxor t.rm_hash_key in
  let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
  let h = (h lxor (h lsr 13)) land max_int in
  4 * (h mod Int.max 1 ((t.rm_frame' - 16) / 4))

let map_slot t k =
  let f = t.rm_frame in
  if k >= f.frame_bytes then begin
    (* incoming-argument access *)
    let j = (k - f.frame_bytes) / 4 in
    if j < Array.length t.rm_arg_off then t.rm_arg_off.(j) else hash_off t k
  end
  else if k >= 0 && k < 4 * f.outgoing_words then t.rm_out_off + k
  else if k >= f.locals_off && k < f.locals_off + f.locals_bytes then
    t.rm_locals_off + (k - f.locals_off)
  else if k = f.ret_off then t.rm_ret_off
  else if k >= f.scratch_off && k < f.scratch_off + 8 then t.rm_scratch_off + (k - f.scratch_off)
  else
    match Hashtbl.find_opt t.rm_slot_off k with
    | Some off -> off
    | None -> hash_off t k

let randomized_locations t =
  let acc = ref [ t.rm_out_off; t.rm_scratch_off; t.rm_vm_temp; t.rm_ret_off ] in
  if t.rm_frame.locals_bytes > 0 then acc := t.rm_locals_off :: !acc;
  Hashtbl.iter (fun _ v -> acc := v :: !acc) t.rm_slot_off;
  Array.iter (fun v -> acc := v :: !acc) t.rm_arg_off;
  Array.iteri
    (fun r loc ->
      match loc with
      | Lpad off -> if r < 16 then acc := off :: !acc
      | Lreg _ -> ())
    t.rm_reg_map;
  !acc

let fingerprint t = t.rm_hash_key

(* --- snapshot ------------------------------------------------------ *)
(* A relocation map is pure data drawn from the VM's rng stream; a
   snapshot carries every field verbatim (including the embedded
   [Frame.t], so loading needs no fat binary lookup) plus the rng
   state separately at the VM level, so maps generated *after* a
   restore continue the donor's stream exactly. Hashtable contents
   are written sorted to keep image bytes deterministic. The ranges
   are what [generate] guarantees: the padded frame is the frame plus
   the pad, every placed object lies in [\[0, frame' - 16)], size
   included, and every kept register maps to a register. A restored
   run addresses its frames through these offsets. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let frame io (f : Frame.t) : Frame.t =
  let outgoing_words = Wire.field io "frame.outgoing_words" C.nat f.outgoing_words in
  let locals_off = Wire.field io "frame.locals_off" C.int f.locals_off in
  let locals_bytes = Wire.field io "frame.locals_bytes" C.nat f.locals_bytes in
  let slot_off = Wire.field io "frame.slot_off" C.int_array f.slot_off in
  let scratch_off = Wire.field io "frame.scratch_off" C.int f.scratch_off in
  let ret_off = Wire.field io "frame.ret_off" C.int f.ret_off in
  let frame_bytes = Wire.field io "frame.frame_bytes" C.nat f.frame_bytes in
  { Frame.outgoing_words; locals_off; locals_bytes; slot_off; scratch_off; ret_off; frame_bytes }

let table c =
  C.conv
    (fun kvs ->
      let h = Hashtbl.create (Int.max 8 (List.length kvs)) in
      List.iter (fun (k, v) -> Hashtbl.replace h k v) kvs;
      h)
    (fun h ->
      List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))
    (C.list (C.pair C.int c))

let reg = C.int_in ~lo:0 ~hi:15

let regs word =
  C.where "16 locations"
    (fun a -> Array.length a = 16)
    (C.array
       (C.sum
          (function Lreg _ -> 0 | Lpad _ -> 1)
          [|
            C.conv (fun n -> Lreg n) (function Lreg n -> n | Lpad _ -> 0) reg;
            C.conv (fun n -> Lpad n) (function Lpad n -> n | Lreg _ -> 0) word;
          |]))

let map io t =
  let io = Wire.section io "RMAP" in
  let rm_fname = Wire.field io "fname" C.str t.rm_fname in
  let rm_frame = frame io t.rm_frame in
  let rm_pad = Wire.field io "pad" C.nat t.rm_pad in
  let padded = rm_frame.frame_bytes + rm_pad in
  let rm_frame' = Wire.field io "frame'" (C.int_in ~lo:padded ~hi:padded) t.rm_frame' in
  let placed size = C.int_in ~lo:0 ~hi:(rm_frame' - 16 - size) in
  let word = placed 4 in
  let rm_ret_off = Wire.field io "ret_off" word t.rm_ret_off in
  let rm_out_off =
    Wire.field io "out_off" (placed (Int.max 4 (4 * rm_frame.outgoing_words))) t.rm_out_off
  in
  let rm_locals_off = Wire.field io "locals_off" (placed rm_frame.locals_bytes) t.rm_locals_off in
  let rm_scratch_off = Wire.field io "scratch_off" (placed 8) t.rm_scratch_off in
  let rm_vm_temp = Wire.field io "vm_temp" (placed 32) t.rm_vm_temp in
  let rm_slot_off = Wire.field io "slot_off" (table word) t.rm_slot_off in
  let rm_arg_off = Wire.field io "arg_off" (C.array word) t.rm_arg_off in
  let rm_reg_map = Wire.field io "reg_map" (regs word) t.rm_reg_map in
  let rm_hash_key = Wire.field io "hash_key" C.int t.rm_hash_key in
  let rm_nregs_in_regs = Wire.field io "nregs_in_regs" (C.int_in ~lo:0 ~hi:16) t.rm_nregs_in_regs in
  {
    rm_fname;
    rm_frame;
    rm_pad;
    rm_frame';
    rm_ret_off;
    rm_out_off;
    rm_locals_off;
    rm_scratch_off;
    rm_vm_temp;
    rm_slot_off;
    rm_arg_off;
    rm_reg_map;
    rm_hash_key;
    rm_nregs_in_regs;
  }

let codec =
  let frame =
    { Frame.outgoing_words = 0; locals_off = 0; locals_bytes = 0; slot_off = [||]; scratch_off = 0;
      ret_off = 0; frame_bytes = 0 }
  in
  C.record "RMAP"
    ~blank:
      { rm_fname = ""; rm_frame = frame; rm_pad = 0; rm_frame' = 0; rm_ret_off = 0; rm_out_off = 0;
        rm_locals_off = 0; rm_scratch_off = 0; rm_vm_temp = 0; rm_slot_off = Hashtbl.create 1;
        rm_arg_off = [||]; rm_reg_map = [||]; rm_hash_key = 0; rm_nregs_in_regs = 0 }
    map
