(* The image codecs. [Hipstr_util.Wire] declares each image record once,
   and two properties hold for every codec and every record:
   - random in-range values round-trip, compared by an equality that
     does not go through the codec (public record fields, accessors, or
     the same future under the same operations), so a field dropped
     from a declaration fails;
   - an out-of-range value in each ranged field is refused with
     [Wire.Corrupt], and the message names the record and the field.
   The records' refusals are found by a scan that overwrites each
   offset of a valid image in turn with -1 (8 bytes of 0xff), which is
   outside every declared range, and decodes it: each ranged field must
   be named by some refusal, and no mutation may raise anything but
   [Wire.Corrupt]. The VM, system, memory-delta and metrics records
   round-trip whole in test_snapshot, which compares the restored run
   with the live one. *)

module Wire = Hipstr_util.Wire
module C = Wire.C
module Rng = Hipstr_util.Rng
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Cache = Hipstr_machine.Cache
module Bpred = Hipstr_machine.Bpred
module Rat = Hipstr_machine.Rat
module Os = Hipstr_machine.Sys
module Cpu = Hipstr_machine.Cpu
module Machine = Hipstr_machine.Machine
module Layout = Hipstr_machine.Layout
module Config = Hipstr_psr.Config
module Code_cache = Hipstr_psr.Code_cache
module Reloc_map = Hipstr_psr.Reloc_map
module Fatbin = Hipstr_compiler.Fatbin
module Obs = Hipstr_obs.Obs
module System = Hipstr.System
module Process = Hipstr_cmp.Process
module Snapshot = Hipstr_snapshot.Snapshot
module Workloads = Hipstr_workloads.Workloads

let rs = Random.State.make [| 26 |]
let rint lo hi = lo + Random.State.int rs (hi - lo + 1)
let any_int () = Int64.to_int (Random.State.bits64 rs)
let coin () = Random.State.bool rs
let pick a = a.(Random.State.int rs (Array.length a))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let refused label ~names f =
  match f () with
  | exception Wire.Corrupt m ->
    if not (contains m (names ^ ":")) then Alcotest.failf "%s: refusal %S does not name %s" label m names
  | exception e -> Alcotest.failf "%s: raised %s, wanted Wire.Corrupt" label (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" label

let write_refused label ~names f =
  match f () with
  | exception Invalid_argument m ->
    if not (contains m (names ^ ":")) then Alcotest.failf "%s: refusal %S does not name %s" label m names
  | exception e -> Alcotest.failf "%s: raised %s, wanted Invalid_argument" label (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: written" label

(* Field "f" of a record "REC". A read passes [other] as the value it
   ignores, so a codec that echoed it would not round-trip. *)
let one c v = Wire.encode (fun io v -> ignore (Wire.field (Wire.section io "REC") "f" c v)) v
let read_one c ~other image = Wire.decode (fun io -> Wire.field (Wire.section io "REC") "f" c other) image

let round_trips label eq c v ~other =
  if not (eq (read_one c ~other (one c v)) v) then Alcotest.failf "%s does not round-trip" label

(* A record "REC" laid out by hand. *)
let raw f =
  let w = Wire.writer () in
  Wire.tag w "REC";
  f w;
  Wire.contents w

(* --- codecs ------------------------------------------------------- *)

type shape = Num of int | Unit | Text of string

let shape =
  C.sum
    (function Num _ -> 0 | Unit -> 1 | Text _ -> 2)
    [|
      C.conv (fun n -> Num n) (function Num n -> n | _ -> 0) C.int;
      C.const Unit;
      C.conv (fun s -> Text s) (function Text s -> s | _ -> "") C.str;
    |]

type pt = { px : int; py : string }

let pt =
  C.record "PT" ~blank:{ px = 0; py = "" } (fun io p ->
      let px = Wire.field io "px" C.nat p.px in
      let py = Wire.field io "py" C.str p.py in
      { px; py })

let rand_str () = String.init (rint 0 24) (fun _ -> Char.chr (rint 0 255))
let rand_shape () = match rint 0 2 with 0 -> Num (any_int ()) | 1 -> Unit | _ -> Text (rand_str ())
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_leaves () =
  let ints = [ 0; 1; -1; min_int; max_int ] @ List.init 300 (fun _ -> any_int ()) in
  List.iter (fun v -> round_trips "int" ( = ) C.int v ~other:(lnot v)) ints;
  List.iter
    (fun v -> round_trips "i64" Int64.equal C.i64 (Int64.of_int v) ~other:(Int64.of_int (lnot v)))
    ints;
  List.iter
    (fun v -> round_trips "float" float_eq C.float v ~other:(if float_eq v 1. then 2. else 1.))
    ([ 0.; -0.; nan; infinity; neg_infinity; min_float; max_float; epsilon_float ]
    @ List.map Int64.float_of_bits (List.map Int64.of_int ints));
  List.iter (fun v -> round_trips "bool" ( = ) C.bool v ~other:(not v)) [ true; false ];
  for _ = 1 to 200 do
    let s = rand_str () in
    round_trips "str" ( = ) C.str s ~other:(s ^ "x")
  done;
  round_trips "literal" ( = ) (C.literal "MAGIC") () ~other:();
  round_trips "const" ( = ) (C.const 7) 7 ~other:8

let test_composites () =
  for _ = 1 to 200 do
    let xs = List.init (rint 0 40) (fun _ -> any_int ()) in
    round_trips "list" ( = ) (C.list C.int) xs ~other:[ 1 ];
    round_trips "array" ( = ) (C.array C.int) (Array.of_list xs) ~other:[| 1 |];
    round_trips "int_array" ( = ) C.int_array (Array.of_list xs) ~other:[| 1 |];
    let o = if coin () then Some (any_int ()) else None in
    round_trips "option" ( = ) (C.option C.int) o ~other:(if o = None then Some 1 else None);
    let p = (any_int (), rand_str ()) in
    round_trips "pair" ( = ) (C.pair C.int C.str) p ~other:(0, "x" ^ snd p);
    let t = (coin (), any_int (), rand_str ()) in
    let a, b, c = t in
    round_trips "triple" ( = ) (C.triple C.bool C.int C.str) t ~other:(not a, b, c);
    let s = rand_shape () in
    round_trips "sum" ( = ) shape s ~other:(if s = Unit then Num 0 else Unit);
    let e = rint 0 2 in
    round_trips "enum" ( = ) (C.enum [| "x"; "y"; "z" |]) [| "x"; "y"; "z" |].(e)
      ~other:[| "y"; "z"; "x" |].(e);
    let r = { px = any_int () land max_int; py = rand_str () } in
    round_trips "record" ( = ) (C.list pt) [ r; r ] ~other:[];
    round_trips "conv" ( = ) (C.conv int_of_string string_of_int C.str) (any_int ()) ~other:0
  done

let test_ranges () =
  for _ = 1 to 200 do
    let lo = rint (-1000) 1000 in
    let hi = lo + rint 0 1000 in
    let c = C.int_in ~lo ~hi in
    round_trips "int_in" ( = ) c (rint lo hi) ~other:(hi + 1);
    refused "int_in below" ~names:"REC.f" (fun () -> read_one c ~other:lo (one C.int (lo - rint 1 9)));
    refused "int_in above" ~names:"REC.f" (fun () -> read_one c ~other:lo (one C.int (hi + rint 1 9)));
    write_refused "int_in written above" ~names:"REC.f" (fun () -> one c (hi + 1))
  done;
  round_trips "nat" ( = ) C.nat max_int ~other:0;
  refused "nat" ~names:"REC.f" (fun () -> read_one C.nat ~other:0 (one C.int (-1)));
  let even = C.where "even" (fun v -> v land 1 = 0) C.int in
  round_trips "where" ( = ) even 42 ~other:0;
  refused "where" ~names:"REC.f" (fun () -> read_one even ~other:0 (one C.int 41));
  write_refused "where written" ~names:"REC.f" (fun () -> one even 41);
  refused "literal" ~names:"REC.f" (fun () ->
      read_one (C.literal "MAGIC") ~other:() (one C.str "MAGIX"));
  refused "enum tag" ~names:"REC.f" (fun () ->
      read_one (C.enum [| 'a'; 'b' |]) ~other:'a' (raw (fun w -> Wire.u8 w 2)));
  refused "sum tag" ~names:"REC.f" (fun () -> read_one shape ~other:Unit (raw (fun w -> Wire.u8 w 3)));
  refused "bool tag" ~names:"REC.f" (fun () -> read_one C.bool ~other:true (raw (fun w -> Wire.u8 w 2)));
  refused "option tag" ~names:"REC.f" (fun () ->
      read_one (C.option C.int) ~other:None (raw (fun w -> Wire.u8 w 2)));
  refused "record field" ~names:"PT.px" (fun () ->
      read_one pt ~other:{ px = 0; py = "" } (raw (fun w -> Wire.int w (-1); Wire.str w "")));
  (* counts are checked against the bytes left before allocating *)
  List.iter
    (fun (label, n) ->
      refused label ~names:"REC.f" (fun () ->
          read_one (C.list C.int) ~other:[] (raw (fun w -> Wire.int w n; Wire.int w 7)));
      refused label ~names:"REC.f" (fun () ->
          read_one C.int_array ~other:[||] (raw (fun w -> Wire.int w n; Wire.int w 7)));
      refused label ~names:"REC.f" (fun () -> read_one C.str ~other:"" (raw (fun w -> Wire.int w n))))
    [ ("negative count", -1); ("count of 2^50", 1 lsl 50); ("count one short", 2) ];
  (* an array filled in place keeps its length *)
  let into a = Wire.encode (fun io a -> Wire.into (Wire.section io "REC") "f" a) a in
  let into' target image = Wire.decode (fun io -> Wire.into (Wire.section io "REC") "f" target) image in
  let a = Array.init 9 (fun _ -> any_int ()) and b = Array.make 9 0 in
  into' b (into a);
  Alcotest.(check (array int)) "into" a b;
  refused "into length" ~names:"REC.f" (fun () -> into' (Array.make 8 0) (into a));
  let bytes a = Wire.encode (fun io a -> Wire.bytes_into (Wire.section io "REC") "f" ~hi:3 a) a in
  let bytes' target image =
    Wire.decode (fun io -> Wire.bytes_into (Wire.section io "REC") "f" ~hi:3 target) image
  in
  let a = Array.init 50 (fun _ -> rint 0 3) and b = Array.make 50 0 in
  bytes' b (bytes a);
  Alcotest.(check (array int)) "bytes_into" a b;
  refused "bytes_into" ~names:"REC.f" (fun () ->
      bytes' (Array.make 2 0) (raw (fun w -> Wire.u8 w 1; Wire.u8 w 4)));
  write_refused "bytes_into written" ~names:"REC.f" (fun () -> bytes [| 1; 4 |]);
  (match Wire.u8 (Wire.writer ()) 256 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "u8 truncated 256");
  (match read_one C.int ~other:0 (one C.int 1 ^ "\000") with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "trailing byte accepted")

let test_enums () =
  let all label c values other =
    List.iter (fun v -> round_trips label ( = ) c v ~other:(other v)) values;
    refused label ~names:"REC.f" (fun () ->
        read_one c ~other:(List.hd values) (raw (fun w -> Wire.u8 w (List.length values))))
  in
  all "isa" Isa.codec [ Desc.Cisc; Desc.Risc ] (function Desc.Cisc -> Desc.Risc | Risc -> Cisc);
  all "mode" System.mode_codec [ System.Native; Psr_only; Hipstr ] (function
    | System.Native -> System.Hipstr
    | _ -> Native);
  all "policy" Code_cache.policy_codec [ Code_cache.Flush; Fifo; Clock ] (function
    | Code_cache.Flush -> Code_cache.Clock
    | _ -> Flush)

(* --- records: round trips ------------------------------------------ *)

let through sync x y = Wire.decode (fun io -> sync io y) (Wire.encode sync x)

let test_os_record () =
  for _ = 1 to 200 do
    let t = Os.create () and u = Os.create () in
    t.brk <- any_int ();
    t.output <- List.init (rint 0 9) (fun _ -> any_int ());
    t.shell <- (if coin () then Some (any_int (), any_int (), any_int ()) else None);
    t.exit_code <- (if coin () then Some (any_int ()) else None);
    through Os.sync t u;
    if t <> u then Alcotest.fail "OS record does not round-trip"
  done

(* Stateful models: random operations, a round trip into a fresh
   model, then the same random future on both must agree step by step
   and end with the same counts. *)
let same_future label ~ops a b =
  for i = 1 to ops do
    let seed = any_int () in
    let ra = Random.State.make [| seed |] and rb = Random.State.make [| seed |] in
    let x = a ra and y = b rb in
    if x <> y then Alcotest.failf "%s: operation %d differs after the round trip" label i
  done

let test_cache_record () =
  for _ = 1 to 30 do
    let size_kb = pick [| 1; 2; 4 |] and assoc = pick [| 1; 2; 4 |] and line = pick [| 32; 64 |] in
    let mk () = Cache.create ~line ~size_kb ~assoc ~miss_penalty:10 () in
    let step c r =
      if Random.State.int r 50 = 0 then (Cache.flush c; (false, 0, 0))
      else (Cache.access c (Random.State.int r 16384), Cache.hits c, Cache.misses c)
    in
    let a = mk () and b = mk () in
    for _ = 1 to rint 0 2000 do
      ignore (step a rs)
    done;
    through Cache.sync a b;
    same_future "cache" ~ops:2000 (step a) (step b)
  done

let test_bpred_record () =
  for _ = 1 to 30 do
    let step p r =
      let pc = Random.State.int r 20000 and v = Random.State.int r 64 in
      let hit =
        match Random.State.int r 4 with
        | 0 -> Bpred.predict_cond p ~pc ~taken:(v land 1 = 0)
        | 1 -> Bpred.predict_indirect p ~pc ~target:v
        | 2 -> Bpred.push_ras p v; true
        | _ -> Bpred.predict_return p ~target:v
      in
      (hit, Bpred.mispredicts p, Bpred.lookups p)
    in
    let a = Bpred.create () and b = Bpred.create () in
    for _ = 1 to rint 0 5000 do
      ignore (step a rs)
    done;
    through Bpred.sync a b;
    same_future "bpred" ~ops:3000 (step a) (step b)
  done

let test_rat_record () =
  for _ = 1 to 50 do
    let capacity = rint 1 24 in
    let step t r =
      let src = Random.State.int r 64 in
      match Random.State.int r 6 with
      | 0 | 1 -> Rat.insert t ~src ~translated:(Random.State.int r 4096); (0, Rat.hits t, Rat.misses t)
      | 2 -> (Rat.find_translated t src, Rat.hits t, Rat.misses t)
      | 3 -> Rat.remove_in_range t ~lo:src ~hi:(src + 64); (0, Rat.hits t, Rat.misses t)
      | _ -> ((match Rat.lookup t src with Some v -> v | None -> -1), Rat.hits t, Rat.misses t)
    in
    let a = Rat.create ~capacity and b = Rat.create ~capacity in
    for _ = 1 to rint 0 400 do
      ignore (step a rs)
    done;
    through Rat.sync a b;
    same_future "rat" ~ops:400 (step a) (step b)
  done

let cc_base = Layout.cisc_cache_base

let test_code_cache_record () =
  for _ = 1 to 40 do
    let policy = pick [| Code_cache.Flush; Fifo; Clock |] and capacity = pick [| 4096; 8192 |] in
    let mk () = Code_cache.create ~policy ~base:cc_base ~capacity () in
    let step c r =
      let src = Random.State.int r 40 and size = 16 + Random.State.int r 600 in
      let align = if Random.State.bool r then 64 else 1 in
      match Code_cache.lookup c src with
      | Some addr -> (addr, [])
      | None ->
        if policy = Code_cache.Flush && not (Code_cache.has_room c ~align ~size) then
          Code_cache.flush c;
        let addr, evicted =
          Code_cache.alloc c ~align ~src ~func:"f" ~size ~src_spans:[ (src * 16, size) ] ()
        in
        (addr, List.map (fun (b : Code_cache.block) -> b.cb_src) evicted)
    in
    let observe c =
      (Code_cache.blocks c, Code_cache.used_bytes c, Code_cache.flushes c, Code_cache.evictions c)
    in
    let a = mk () and b = mk () in
    for _ = 1 to rint 0 200 do
      ignore (step a rs)
    done;
    through Code_cache.sync a b;
    if observe a <> observe b then Alcotest.fail "code-cache state does not round-trip";
    same_future "code cache" ~ops:200 (step a) (step b)
  done

let observe_map m =
  let frame = Reloc_map.padded_frame m in
  ( (Reloc_map.padded_frame m, Reloc_map.pad m, Reloc_map.ret_off m, Reloc_map.vm_temp_off m),
    (Reloc_map.regs_in_registers m, Reloc_map.fingerprint m),
    List.init 16 (Reloc_map.map_reg m),
    List.init ((frame / 4) + 24) (fun k -> Reloc_map.map_slot m ((4 * k) - 16)),
    List.init 8 (Reloc_map.arg_off m),
    List.sort compare (Reloc_map.randomized_locations m) )

let map_field m = Wire.encode (fun io m -> ignore (Wire.field io "map" Reloc_map.codec m)) m
let read_map ~other image = Wire.decode (fun io -> Wire.field io "map" Reloc_map.codec other) image

let random_maps fb =
  Array.to_list
    (Array.map
       (fun fs ->
         let which = pick [| Desc.Cisc; Desc.Risc |] in
         let desc = Isa.desc which in
         let cfg = { Config.default with pad_bytes = 4 * rint 64 4096; opt_level = rint 0 3 } in
         let hot_regs = List.filter (fun _ -> coin ()) desc.Desc.allocatable in
         Reloc_map.generate cfg (Rng.create (any_int ())) desc fs ~hot_regs)
       fb.Fatbin.fb_funcs)

let test_reloc_map_record () =
  List.iter
    (fun w ->
      let maps = random_maps (Workloads.fatbin w) in
      let other = List.hd maps in
      List.iter
        (fun m ->
          let other = if m == other then List.nth maps (List.length maps - 1) else other in
          if observe_map (read_map ~other (map_field m)) <> observe_map m then
            Alcotest.failf "%s: relocation map does not round-trip" w.Workloads.w_name)
        maps)
    (Workloads.all @ [ Workloads.httpd ])

let mcf () = Workloads.fatbin (Workloads.find "mcf")

(* Fuel accounting and the suspicious-event mark are seen through the
   next slice: the process read back runs on a restored copy of the
   system, so both can take it. *)
let test_process_record () =
  for pid = 1 to 12 do
    let p =
      Process.create ~obs:Obs.disabled ~mode:(pick [| System.Psr_only; Hipstr |]) ~pid
        ~name:(rand_str ()) ~fuel:(rint 1 60_000) (mcf ())
    in
    for _ = 1 to rint 0 6 do
      if Process.runnable p then ignore (Process.run_slice p ~fuel:(rint 1 20_000))
    done;
    Process.set_last_core p 3;
    let q, _ = Snapshot.restore_process ~obs:Obs.disabled ~fatbin:(mcf ()) (Snapshot.checkpoint_process p) in
    let observe p =
      ( (Process.pid p, Process.name p, Process.outcome p, Process.runnable p),
        (Process.slices p, Process.instructions p, Int64.bits_of_float (Process.cycles p)),
        (Process.flagged p, Process.sched_migrations p) )
    in
    if observe p <> observe q then Alcotest.fail "process slice does not round-trip";
    Alcotest.(check (option int)) "core warmth is dropped" None (Process.last_core q);
    if Process.runnable p then begin
      let a = Process.run_slice p ~fuel:max_int and b = Process.run_slice q ~fuel:max_int in
      if a.System.sl_instructions <> b.System.sl_instructions || observe p <> observe q then
        Alcotest.fail "process slice runs differently after the round trip"
    end
  done

let test_machine_record () =
  List.iter
    (fun mode ->
      let sys = System.of_fatbin ~obs:Obs.disabled ~seed:(rint 1 99) ~mode (mcf ()) in
      ignore (System.run sys ~fuel:(rint 1 80_000));
      let m = System.machine sys in
      let rat_capacity = if mode = System.Native then None else Some Config.default.rat_capacity in
      let m' = Machine.create ~obs:Obs.disabled ~rat_capacity ~active:Desc.Cisc () in
      through Machine.sync m m';
      let observe m =
        let c = Machine.cpu m in
        ( (c.Cpu.pc, Array.copy c.regs, (c.flags.zf, c.flags.sf, c.flags.cf, c.flags.vf)),
          { c.perf with cycles_fc = c.perf.cycles_fc },
          (Machine.active m, Machine.migrations m, Int64.bits_of_float (Machine.cycles m)),
          Machine.os m )
      in
      if observe m <> observe m' then Alcotest.fail "machine state does not round-trip")
    [ System.Native; Psr_only; Hipstr ]

(* The manifest and its config: random valid configs and creation
   arguments come back as the record the image was taken from. *)
let test_manifest_record () =
  for _ = 1 to 20 do
    let cfg =
      {
        Config.opt_level = rint 0 3;
        pad_bytes = 4 * rint 64 2048;
        rat_capacity = rint 1 1024;
        cache_bytes = rint 4096 (1 lsl 21);
        migrate_prob = Random.State.float rs 1.;
        seed = any_int ();
        superblock_budget = rint 1 64;
        cc_policy = pick [| Code_cache.Flush; Fifo; Clock |];
      }
    in
    let mode = pick [| System.Native; Psr_only; Hipstr |] and seed = any_int () in
    let start_isa = pick [| Desc.Cisc; Desc.Risc |] and pid = rint 0 99 in
    let sys = System.of_fatbin ~obs:Obs.disabled ~cfg ~seed ~start_isa ~pid ~mode (mcf ()) in
    ignore (System.run sys ~fuel:(rint 1 3000));
    let workload = rand_str () in
    let mf = Snapshot.manifest_of (Snapshot.checkpoint ~workload sys) in
    if
      not
        (mf.mf_cfg = cfg && mf.mf_mode = mode && mf.mf_seed = seed && mf.mf_start_isa = start_isa
       && mf.mf_pid = pid && mf.mf_workload = workload
        && mf.mf_instructions = System.instructions sys
        && float_eq mf.mf_cycles (System.cycles sys))
    then Alcotest.fail "manifest does not round-trip"
  done

(* --- records: refusals ---------------------------------------------- *)

(* Overwrite each offset [at] selects with -1 and decode; the refusal
   messages. Anything but [Wire.Corrupt] fails. *)
let scan label ?(at = fun _ -> true) image decode =
  let msgs = ref [] in
  for i = 0 to String.length image - 1 do
    if at i then begin
      let b = Bytes.of_string image in
      Bytes.fill b i (Int.min 8 (Bytes.length b - i)) '\255';
      match decode (Bytes.to_string b) with
      | _ -> ()
      | exception Wire.Corrupt m -> msgs := m :: !msgs
      | exception e -> Alcotest.failf "%s: -1 at offset %d raised %s" label i (Printexc.to_string e)
    end
  done;
  !msgs

let named label msgs names =
  List.iter
    (fun n ->
      if not (List.exists (fun m -> contains m (n ^ ":")) msgs) then
        Alcotest.failf "%s: no refusal names %s" label n)
    names

(* The offsets within [before] bytes ahead of, or [after] bytes past,
   each occurrence of a section tag in [tags]. *)
let near image tags ~before ~after =
  let spans =
    List.concat_map
      (fun tag ->
        let t = String.make 1 (Char.chr (String.length tag)) ^ tag in
        List.filter_map
          (fun p ->
            if p + String.length t <= String.length image && String.sub image p (String.length t) = t
            then Some (p - before, p + after)
            else None)
          (List.init (String.length image) Fun.id))
      tags
  in
  fun i -> List.exists (fun (lo, hi) -> i >= lo && i < hi) spans

let test_refusals_machine () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~miss_penalty:10 () in
  for _ = 1 to 50 do
    ignore (Cache.access c (rint 0 4096))
  done;
  let target = Cache.create ~size_kb:1 ~assoc:2 ~miss_penalty:10 () in
  named "cache"
    (scan "cache" (Wire.encode Cache.sync c) (Wire.decode (fun io -> Cache.sync io target)))
    [ "CACHE.tags"; "CACHE.stamps" ];
  let b = Bpred.create () in
  named "bpred"
    (scan "bpred" (Wire.encode Bpred.sync b) (Wire.decode (fun io -> Bpred.sync io b)))
    [ "BPRED.counters"; "BPRED.btb"; "BPRED.ras"; "BPRED.ras_top" ];
  let r = Rat.create ~capacity:8 in
  List.iter (fun src -> Rat.insert r ~src ~translated:(src * 3)) [ 1; 2; 3 ];
  named "rat"
    (scan "rat" (Wire.encode Rat.sync r) (Wire.decode (fun io -> Rat.sync io r)))
    [ "RAT.entries" ];
  let os = Os.create () in
  os.output <- [ 4; 5 ];
  os.shell <- Some (1, 2, 3);
  os.exit_code <- Some 0;
  named "os"
    (scan "os" (Wire.encode Os.sync os) (Wire.decode (fun io -> Os.sync io (Os.create ()))))
    [ "OS.output"; "OS.shell"; "OS.exit_code" ];
  let sys = System.of_fatbin ~obs:Obs.disabled ~seed:3 ~mode:System.Hipstr (mcf ()) in
  ignore (System.run sys ~fuel:20_000);
  let image = Wire.encode Machine.sync (System.machine sys) in
  let m = Machine.create ~obs:Obs.disabled ~rat_capacity:(Some 512) ~active:Desc.Cisc () in
  let n = String.length image in
  let before_rat = near image [ "RAT" ] ~before:16 ~after:0 in
  named "machine"
    (scan "machine"
       ~at:(fun i -> i < 400 || i >= n - 48 || before_rat i)
       image
       (Wire.decode (fun io -> Machine.sync io m)))
    [ "MACH.regs"; "MACH.zf"; "MACH.sf"; "MACH.cf"; "MACH.vf"; "OS.output"; "MACH.has_rat"; "MACH.active" ]

let test_refusals_psr () =
  let fb = Workloads.fatbin (Workloads.find "gobmk") in
  let with_locals_and_args =
    List.find
      (fun m -> Reloc_map.arg_off m 0 <> Reloc_map.ret_off m - 4 && List.length (Reloc_map.randomized_locations m) > 24)
      (random_maps fb)
  in
  named "reloc map"
    (scan "reloc map" (map_field with_locals_and_args) (read_map ~other:with_locals_and_args))
    [
      "RMAP.fname"; "RMAP.frame.outgoing_words"; "RMAP.frame.locals_bytes"; "RMAP.frame.slot_off";
      "RMAP.frame.frame_bytes"; "RMAP.pad"; "RMAP.frame'"; "RMAP.ret_off"; "RMAP.out_off";
      "RMAP.locals_off"; "RMAP.scratch_off"; "RMAP.vm_temp"; "RMAP.slot_off"; "RMAP.arg_off";
      "RMAP.reg_map"; "RMAP.nregs_in_regs";
    ];
  let cc = Code_cache.create ~policy:Code_cache.Clock ~base:cc_base ~capacity:4096 () in
  List.iter
    (fun src ->
      ignore (Code_cache.alloc cc ~src ~func:"f" ~size:100 ~src_spans:[ (src, 10) ] ());
      ignore (Code_cache.lookup cc src))
    [ 1; 2 ];
  named "code cache"
    (scan "code cache" (Wire.encode Code_cache.sync cc) (Wire.decode (fun io -> Code_cache.sync io cc)))
    [ "CCACHE.cursor"; "CCACHE.blocks"; "CCACHE.referenced" ];
  let p = Process.create ~obs:Obs.disabled ~mode:System.Psr_only ~pid:1 ~name:"p" ~fuel:10 (mcf ()) in
  ignore (Process.run_slice p ~fuel:10);
  Process.set_last_core p 1;
  named "process"
    (scan "process"
       (Wire.encode (fun io p -> ignore (Process.sync io p)) p)
       (Wire.decode (fun io -> Process.sync io (Process.blank (Process.sys p)))))
    [ "PROC.name"; "PROC.state"; "PROC.flagged"; "PROC.last_core" ]

(* The framing of memo artifacts, system images and process images,
   with the VM and system records inside them. *)
let test_refusals_images () =
  let fb = mcf () in
  let sys = System.of_fatbin ~obs:Obs.disabled ~seed:3 ~mode:System.Psr_only fb in
  ignore (System.run sys ~fuel:20_000);
  let target = System.of_fatbin ~obs:Obs.disabled ~seed:3 ~mode:System.Psr_only fb in
  named "memo"
    (scan "memo" (Snapshot.save_memo sys) (Snapshot.load_memo target))
    [
      "image.magic"; "image.version"; "image.mode"; "CFG.cc_policy"; "MEMO.vms"; "MEMO.isa";
      "PSRMETA.reserved"; "PSRMETA.maps"; "PSRMETA.memo_keys"; "PSRMETA.translated"; "RMAP.vm_temp";
    ];
  let sys = System.of_fatbin ~obs:Obs.disabled ~seed:3 ~mode:System.Psr_only fb in
  ignore (System.run sys ~fuel:1_000);
  let image = Snapshot.checkpoint sys in
  let sections = near image [ "MEMDELTA"; "SYSTEM"; "PSRVM"; "METRICS" ] ~before:16 ~after:60 in
  let ccache = near image [ "CCACHE" ] ~before:0 ~after:80 in
  let tail = String.length image - 1200 in
  named "system image"
    (scan "system image"
       ~at:(fun i -> i < 400 || sections i || ccache i || i >= tail)
       image
       (fun image -> Snapshot.restore ~obs:Obs.disabled ~fatbin:fb image))
    [
      "image.version"; "MANIFEST.workload"; "MANIFEST.mode"; "MANIFEST.start_isa"; "CFG.cc_policy";
      "MEMDELTA.pages"; "SYSTEM.mode"; "SYSTEM.started"; "SYSTEM.migration_requested"; "SYSTEM.vms";
      "SYSTEM.isa"; "PSRVM.reserved"; "PSRVM.maps"; "CCACHE.cursor"; "CCACHE.blocks"; "PSRVM.patches";
      "PSRVM.new_units"; "METRICS.counters"; "METRICS.histograms";
    ];
  let p = Process.create ~obs:Obs.disabled ~mode:System.Psr_only ~pid:1 ~name:"p" ~fuel:1_000 fb in
  ignore (Process.run_slice p ~fuel:500);
  let image = Snapshot.checkpoint_process p in
  named "process image"
    (scan "process image" ~at:(fun i -> i < 40) image (fun image ->
         Snapshot.restore_process ~obs:Obs.disabled ~fatbin:fb image))
    [ "image.magic" ]

let () =
  Alcotest.run "wire"
    [
      ( "codecs",
        [
          Alcotest.test_case "leaves round-trip" `Quick test_leaves;
          Alcotest.test_case "composites round-trip" `Quick test_composites;
          Alcotest.test_case "ranges refused both ways" `Quick test_ranges;
          Alcotest.test_case "enum tables" `Quick test_enums;
        ] );
      ( "records round-trip",
        [
          Alcotest.test_case "OS surface" `Quick test_os_record;
          Alcotest.test_case "cache model" `Quick test_cache_record;
          Alcotest.test_case "branch predictor" `Quick test_bpred_record;
          Alcotest.test_case "RAT" `Quick test_rat_record;
          Alcotest.test_case "code cache" `Quick test_code_cache_record;
          Alcotest.test_case "relocation maps" `Quick test_reloc_map_record;
          Alcotest.test_case "process slice" `Quick test_process_record;
          Alcotest.test_case "machine" `Quick test_machine_record;
          Alcotest.test_case "manifest and config" `Quick test_manifest_record;
        ] );
      ( "records refuse out-of-range fields",
        [
          Alcotest.test_case "machine records" `Quick test_refusals_machine;
          Alcotest.test_case "PSR records" `Quick test_refusals_psr;
          Alcotest.test_case "images" `Quick test_refusals_images;
        ] );
    ]
