open Hipstr_isa
module Layout = Hipstr_machine.Layout
module Mem = Hipstr_machine.Mem

type location = Lreg of int | Lslot of int

type image = {
  im_entry : int;
  im_size : int;
  im_code : string;
  im_block_addr : int array;
  im_block_size : int array;
  im_callsite_ret : (int * int) array;
  im_homes : location array;
  im_reg_uses : int array;
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
}

let image fs = function Desc.Cisc -> fs.fs_cisc | Desc.Risc -> fs.fs_risc

let homes_of_alloc frame (alloc : Regalloc.result) n =
  Array.init (max 1 n) (fun v ->
      match alloc.homes.(v) with
      | Regalloc.Hreg r -> Lreg r
      | Regalloc.Hslot -> Lslot frame.Frame.slot_off.(v))

let align a n = (n + a - 1) / a * a

let count_reg_uses which ~read ~lo ~hi =
  let counts = Array.make 16 0 in
  let bump r = if r >= 0 && r < 16 then counts.(r) <- counts.(r) + 1 in
  let decode addr =
    match which with
    | Desc.Cisc -> Hipstr_cisc.Isa.decode ~read addr
    | Desc.Risc -> Hipstr_risc.Isa.decode ~read addr
  in
  let rec go pos =
    if pos < hi then
      match decode pos with
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

let link (p : Ir.program) =
  (match Ir.validate p with Ok () -> () | Error e -> failwith ("fatbin: invalid IR: " ^ e));
  let cisc_desc = Hipstr_cisc.Isa.desc in
  let risc_desc = Hipstr_risc.Isa.desc in
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
          (* The bytes {!load} writes at [base]. Every instruction
             codegen emits lies inside them, and the decoders read only
             the bytes of the instruction they decode, so this equals a
             decode of freshly loaded memory. *)
          let read a =
            let o = a - base in
            if o >= 0 && o < String.length code then Char.code (String.unsafe_get code o) else -1
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
            im_reg_uses = count_reg_uses desc.Desc.which ~read ~lo:base ~hi:(base + cg.cg_size);
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
  {
    fb_funcs = Array.of_list funcs;
    fb_globals = globals;
    fb_inits = inits;
    fb_data_size = !gcur - Layout.data_base;
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

let find_func t name =
  let n = Array.length t.fb_funcs in
  let rec go i =
    if i >= n then raise Not_found
    else if t.fb_funcs.(i).fs_name = name then t.fb_funcs.(i)
    else go (i + 1)
  in
  go 0

let entry t which = (image (find_func t "main") which).im_entry

(* Plain indexed scan: this runs on every VM trap (stub service,
   icall validation, mirror lookup), so it must not allocate per
   element the way a [Seq] pipeline does — only the final [Some]. *)
let func_at t which addr =
  let n = Array.length t.fb_funcs in
  let rec go i =
    if i >= n then None
    else
      let fs = t.fb_funcs.(i) in
      let im = image fs which in
      if addr >= im.im_entry && addr < im.im_entry + im.im_size then Some fs else go (i + 1)
  in
  go 0

let block_at t which addr =
  match func_at t which addr with
  | None -> None
  | Some fs ->
    let im = image fs which in
    let n = Array.length im.im_block_addr in
    let found = ref None in
    for l = 0 to n - 1 do
      if
        !found = None && addr >= im.im_block_addr.(l)
        && addr < im.im_block_addr.(l) + im.im_block_size.(l)
      then found := Some (fs, l)
    done;
    !found

let block_starting_at t which addr =
  match func_at t which addr with
  | None -> None
  | Some fs ->
    let im = image fs which in
    let n = Array.length im.im_block_addr in
    let found = ref None in
    for l = 0 to n - 1 do
      if !found = None && addr = im.im_block_addr.(l) then found := Some (fs, l)
    done;
    !found

(* Indexed scans, not [Array.iter] closures: this runs on migration
   resolution and translation-unit entry, where a pair of closures per
   function searched was a measurable allocation source. *)
let rec callsite_scan fs sites n addr j =
  if j >= n then None
  else
    let site, ret = Array.unsafe_get sites j in
    if ret = addr then Some (fs, site) else callsite_scan fs sites n addr (j + 1)

let callsite_of_ret t which addr =
  let nf = Array.length t.fb_funcs in
  let rec go i =
    if i >= nf then None
    else
      let fs = t.fb_funcs.(i) in
      let sites = (image fs which).im_callsite_ret in
      match callsite_scan fs sites (Array.length sites) addr 0 with
      | Some _ as r -> r
      | None -> go (i + 1)
  in
  go 0

let rec site_scan sites n site j =
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
