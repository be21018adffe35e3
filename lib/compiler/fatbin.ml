open Hipstr_isa
module Layout = Hipstr_machine.Layout
module Mem = Hipstr_machine.Mem

type location = Lreg of int | Lslot of int

type decoded = { dc_addr : int array; dc_instr : Minstr.t array }

type image = {
  im_entry : int;
  im_size : int;
  im_code : string;
  im_block_addr : int array;
  im_block_size : int array;
  im_callsite_ret : (int * int) array;
  im_homes : location array;
  im_reg_uses : int array;
  im_decoded : decoded option Atomic.t;
}

type func_sym = {
  fs_name : string;
  fs_ir : Ir.func;
  fs_frame : Frame.t;
  fs_live_in : int list array;
  fs_cisc : image;
  fs_risc : image;
}

type t = {
  fb_funcs : func_sym array;
  fb_globals : (string * int) list;
  fb_inits : (int * int list) list;
  fb_data_size : int;
  fb_fingerprint : int;
  fb_baseline : Mem.t option Atomic.t;
}

let image fs = function Desc.Cisc -> fs.fs_cisc | Desc.Risc -> fs.fs_risc

let homes_of_alloc frame (alloc : Regalloc.result) n =
  Array.init (max 1 n) (fun v ->
      match alloc.homes.(v) with
      | Regalloc.Hreg r -> Lreg r
      | Regalloc.Hslot -> Lslot frame.Frame.slot_off.(v))

let align a n = (n + a - 1) / a * a

(* The bytes {!load} writes at [base], as a decoder reader. Every
   instruction codegen emits lies inside them, and the decoders read
   only the bytes of the instruction they decode, so a decode through
   this equals a decode of freshly loaded memory. *)
let code_reader ~base code a =
  let o = a - base in
  if o >= 0 && o < String.length code then Char.code (String.unsafe_get code o) else -1

let count_reg_uses which ~read ~lo ~hi =
  let counts = Array.make 16 0 in
  let bump r = if r >= 0 && r < 16 then counts.(r) <- counts.(r) + 1 in
  let rec go pos =
    if pos < hi then
      match Isa.decode which ~read pos with
      | None -> ()
      | Some (i, len) ->
        List.iter
          (fun (op : Minstr.operand) ->
            match op with Reg r -> bump r | Mem { base; _ } -> bump base | Imm _ -> ())
          (Minstr.operands i);
        go (pos + len)
  in
  go lo;
  counts

type prelinked = {
  pl_ir : Ir.func;
  pl_frame : Frame.t;
  pl_lv : Liveness.t;
  pl_cg_cisc : Codegen.t;
  pl_cg_risc : Codegen.t;
  pl_alloc_cisc : Regalloc.result;
  pl_alloc_risc : Regalloc.result;
}

(* FNV-1a 64 over each ISA's [main] entry, then every function's
   entry, size and code bytes, truncated to OCaml's 63-bit int for Wire
   transport. Functions are laid out disjoint and [load] writes exactly
   [im_code] at [im_entry], so this hashes the code as loaded. Each
   loop keeps its accumulator in a local [ref], which ocamlopt holds
   unboxed. *)
let fnv_prime = 0x100000001b3L

let fnv_int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((v lsr (8 * i)) land 0xFF))) fnv_prime
  done;
  !h

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

let fingerprint funcs =
  (* [link] validated the IR, so [main] exists *)
  let main = Option.get (Array.find_opt (fun fs -> fs.fs_name = "main") funcs) in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun which ->
      h := fnv_int !h (image main which).im_entry;
      Array.iter
        (fun fs ->
          let im = image fs which in
          h := fnv_string (fnv_int (fnv_int !h im.im_entry) im.im_size) im.im_code)
        funcs)
    [ Desc.Cisc; Desc.Risc ];
  Int64.to_int (Int64.shift_right_logical !h 1)

let link (p : Ir.program) =
  (match Ir.validate p with Ok () -> () | Error e -> failwith ("fatbin: invalid IR: " ^ e));
  let cisc_desc = Isa.desc Desc.Cisc in
  let risc_desc = Isa.desc Desc.Risc in
  (* Per-function: liveness, both allocations, the common frame, and
     both code streams. *)
  let prelinked =
    List.map
      (fun f ->
        let lv = Liveness.analyze f in
        let alloc_c = Regalloc.allocate cisc_desc f lv in
        let alloc_r = Regalloc.allocate risc_desc f lv in
        let needs_slot =
          Array.init
            (max 1 f.Ir.fn_nvals)
            (fun v -> alloc_c.needs_slot.(v) || alloc_r.needs_slot.(v))
        in
        let frame = Frame.layout f ~needs_slot in
        {
          pl_ir = f;
          pl_frame = frame;
          pl_lv = lv;
          pl_cg_cisc = Codegen.gen cisc_desc f frame alloc_c lv;
          pl_cg_risc = Codegen.gen risc_desc f frame alloc_r lv;
          pl_alloc_cisc = alloc_c;
          pl_alloc_risc = alloc_r;
        })
      p.pr_funcs
  in
  (* Address assignment. *)
  let cisc_entries = Hashtbl.create 16 in
  let risc_entries = Hashtbl.create 16 in
  let ccur = ref Layout.cisc_code_base in
  let rcur = ref Layout.risc_code_base in
  List.iter
    (fun pl ->
      Hashtbl.replace cisc_entries pl.pl_ir.Ir.fn_name !ccur;
      ccur := align 16 (!ccur + pl.pl_cg_cisc.Codegen.cg_size);
      Hashtbl.replace risc_entries pl.pl_ir.Ir.fn_name !rcur;
      rcur := align 16 (!rcur + pl.pl_cg_risc.Codegen.cg_size))
    prelinked;
  if !ccur > Layout.cisc_code_base + Layout.code_region_size then
    failwith "fatbin: CISC code section overflow";
  if !rcur > Layout.risc_code_base + Layout.code_region_size then
    failwith "fatbin: RISC code section overflow";
  (* Globals. *)
  let globals = ref [] in
  let gcur = ref Layout.data_base in
  List.iter
    (fun (name, words, _) ->
      globals := (name, !gcur) :: !globals;
      gcur := !gcur + (4 * words))
    p.pr_globals;
  let globals = List.rev !globals in
  if !gcur > Layout.data_base + Layout.data_size then failwith "fatbin: data section overflow";
  let global_addr name =
    match List.assoc_opt name globals with
    | Some a -> a
    | None -> failwith ("fatbin: unknown global " ^ name)
  in
  let entry_of tbl name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None -> failwith ("fatbin: unknown function " ^ name)
  in
  (* Encode and build symbols. *)
  let funcs =
    List.map
      (fun pl ->
        let f = pl.pl_ir in
        let make desc (cg : Codegen.t) alloc entries =
          let base = entry_of entries f.Ir.fn_name in
          let code =
            Codegen.encode_all desc ~base
              ~block_addr:(fun l -> base + cg.cg_block_off.(l))
              ~func_entry:(entry_of entries) ~global_addr cg
          in
          {
            im_entry = base;
            im_size = cg.cg_size;
            im_code = code;
            im_block_addr = Array.map (fun o -> base + o) cg.cg_block_off;
            im_block_size = Array.copy cg.cg_block_size;
            im_callsite_ret =
              Array.of_list (List.map (fun (s, o) -> (s, base + o)) cg.cg_callsites);
            im_homes = homes_of_alloc pl.pl_frame alloc f.Ir.fn_nvals;
            im_reg_uses =
              count_reg_uses desc.Desc.which ~read:(code_reader ~base code) ~lo:base
                ~hi:(base + cg.cg_size);
            im_decoded = Atomic.make None;
          }
        in
        let live_in =
          Array.init (Array.length f.Ir.fn_blocks) (fun l -> Liveness.live_in pl.pl_lv l)
        in
        {
          fs_name = f.Ir.fn_name;
          fs_ir = f;
          fs_frame = pl.pl_frame;
          fs_live_in = live_in;
          fs_cisc = make cisc_desc pl.pl_cg_cisc pl.pl_alloc_cisc cisc_entries;
          fs_risc = make risc_desc pl.pl_cg_risc pl.pl_alloc_risc risc_entries;
        })
      prelinked
  in
  let inits =
    List.map (fun (name, _words, init) -> (List.assoc name globals, init)) p.pr_globals
  in
  let funcs = Array.of_list funcs in
  {
    fb_funcs = funcs;
    fb_globals = globals;
    fb_inits = inits;
    fb_data_size = !gcur - Layout.data_base;
    fb_fingerprint = fingerprint funcs;
    fb_baseline = Atomic.make None;
  }

let load t mem =
  Array.iter
    (fun fs ->
      Mem.blit_string mem fs.fs_cisc.im_entry fs.fs_cisc.im_code;
      Mem.blit_string mem fs.fs_risc.im_entry fs.fs_risc.im_code)
    t.fb_funcs;
  List.iter
    (fun (addr, init) -> List.iteri (fun i v -> Mem.write32 mem (addr + (4 * i)) v) init)
    t.fb_inits

(* Built on first use, not at link: most binaries are never
   checkpointed, and each image is a 32 MiB address space's page
   table. Not a [Lazy.t], which raises when two domains force it at
   once: racing domains each build one and the first to publish wins. *)
let baseline t =
  match Atomic.get t.fb_baseline with
  | Some m -> m
  | None ->
    let m = Mem.create Layout.mem_size in
    load t m;
    if Atomic.compare_and_set t.fb_baseline None (Some m) then m
    else Option.get (Atomic.get t.fb_baseline)

(* A linear decode of [im_code] from the entry, stopping at its end or
   at the first undecodable byte. *)
let decode_image which im =
  let read = code_reader ~base:im.im_entry im.im_code and hi = im.im_entry + im.im_size in
  let rec go pos instrs addrs =
    match if pos < hi then Isa.decode which ~read pos else None with
    | Some (i, len) -> go (pos + len) (i :: instrs) (pos :: addrs)
    | None ->
      { dc_addr = Array.of_list (List.rev (pos :: addrs)); dc_instr = Array.of_list (List.rev instrs) }
  in
  go im.im_entry [] []

(* Built per function on first use, as [baseline] is per binary:
   decoding every function at link would keep a decoded copy of each
   binary's code alive in every context that holds the binary, used or
   not. *)
let decoded fs which =
  let im = image fs which in
  match Atomic.get im.im_decoded with
  | Some d -> d
  | None ->
    let d = decode_image which im in
    if Atomic.compare_and_set im.im_decoded None (Some d) then d
    else Option.get (Atomic.get im.im_decoded)

(* Binary search for [addr] among the instruction starts [a.(lo ..
   hi - 1)]. This search and [last_at_or_below] below are top-level
   functions taking all their state as arguments: a local [let rec]
   capturing it is a closure allocated on every call, and both run on
   the translation miss path. *)
let rec index_in (a : int array) (addr : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get a mid in
    if m = addr then mid
    else if m < addr then index_in a addr (mid + 1) hi
    else index_in a addr lo mid

let instr_index d (addr : int) = index_in d.dc_addr addr 0 (Array.length d.dc_instr)

let find_func t name =
  let n = Array.length t.fb_funcs in
  let rec go i =
    if i >= n then raise Not_found
    else if t.fb_funcs.(i).fs_name = name then t.fb_funcs.(i)
    else go (i + 1)
  in
  go 0

let entry t which = (image (find_func t "main") which).im_entry

(* Binary search: [link] lays the functions out in array order on
   both ISAs, disjoint, so the only function that can hold [addr] is
   the last one whose entry is at or below it. This runs on every VM
   trap, translation miss and mirrored unit. *)
let rec last_at_or_below funcs which (addr : int) lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    if (image (Array.unsafe_get funcs mid) which).im_entry <= addr then
      last_at_or_below funcs which addr (mid + 1) hi
    else last_at_or_below funcs which addr lo mid

let func_at t which (addr : int) =
  let funcs = t.fb_funcs in
  let i = last_at_or_below funcs which addr 0 (Array.length funcs) in
  if i < 0 then None
  else
    let fs = funcs.(i) in
    let im = image fs which in
    if addr < im.im_entry + im.im_size then Some fs else None

(* The first block of [fs] whose code satisfies [hit], by label. *)
let rec block_scan fs (im : image) hit (addr : int) l =
  if l >= Array.length im.im_block_addr then None
  else if hit im l addr then Some (fs, l)
  else block_scan fs im hit addr (l + 1)

let block_at t which addr =
  match func_at t which addr with
  | None -> None
  | Some fs ->
    block_scan fs (image fs which)
      (fun im l addr ->
        addr >= im.im_block_addr.(l) && addr < im.im_block_addr.(l) + im.im_block_size.(l))
      addr 0

let block_starting_at t which addr =
  match func_at t which addr with
  | None -> None
  | Some fs -> block_scan fs (image fs which) (fun im l addr -> addr = im.im_block_addr.(l)) addr 0

(* Indexed scans, not [Array.iter] closures: this runs on migration
   resolution and translation-unit entry, where a pair of closures per
   function searched was a measurable allocation source. The [int]
   annotations make each [=] an integer compare; unannotated, the
   element type is inferred polymorphic and [=] calls the C
   [caml_equal]. *)
let rec callsite_scan fs (sites : (int * int) array) n (addr : int) j =
  if j >= n then None
  else
    let site, ret = Array.unsafe_get sites j in
    if ret = addr then Some (fs, site) else callsite_scan fs sites n addr (j + 1)

(* A return address is the end of its call, so its last byte, [addr -
   1], lies in the calling function: only that function's sites can
   match. *)
let callsite_of_ret t which addr =
  match func_at t which (addr - 1) with
  | None -> None
  | Some fs ->
    let sites = (image fs which).im_callsite_ret in
    callsite_scan fs sites (Array.length sites) addr 0

let rec site_scan (sites : (int * int) array) n (site : int) j =
  if j >= n then None
  else
    let s, ret = Array.unsafe_get sites j in
    if s = site then Some ret else site_scan sites n site (j + 1)

let callsite_ret fs which site =
  let sites = (image fs which).im_callsite_ret in
  site_scan sites (Array.length sites) site 0

let global_addr t name =
  match List.assoc_opt name t.fb_globals with Some a -> a | None -> raise Not_found

let code_bytes t which =
  Array.to_list t.fb_funcs
  |> List.map (fun fs ->
         let im = image fs which in
         (im.im_entry, im.im_size))
