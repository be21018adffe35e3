open Hipstr_isa
module W32 = Hipstr_util.Wrap32
module Obs = Hipstr_obs.Obs

type fault = Bad_fetch of int | Bad_access of int | Cache_jump of int

type trap = Trap_stub of int | Rat_miss of int | Exit of int | Shell | Fault of fault

type counters = {
  cn_instrs : Obs.Metrics.counter;
  cn_faults : Obs.Metrics.counter;
  cn_syscalls : Obs.Metrics.counter;
}

type env = {
  cpu : Cpu.t;
  mem : Mem.t;
  reader : int -> int;  (** preallocated decode reader over [mem] *)
  desc : Desc.t;
  core : Core_desc.t;
  icache : Cache.t;
  dcache : Cache.t;
  bpred : Bpred.t;
  rat : Rat.t option;
  os : Sys.t;
  dcode : Decode_cache.t option;
  obs : Obs.t;
  ctrs : counters;
  (* Memoized integer charges, in femtocycles ({!Cpu.fc_scale}):
     the [lat / throughput] quotients for the four latencies the
     decoder can produce, and the flat penalties. Each is converted
     exactly once per core (through {!Cpu.fc_quotient} — the same
     function the decode cache uses to bake charges into packed
     blocks), so per-retirement accounting is a single integer
     add. *)
  q1 : int;  (** 1 / throughput *)
  q2 : int;  (** 2 / throughput *)
  qmul : int;  (** mul_latency / throughput *)
  qdiv : int;  (** div_latency / throughput *)
  p_mispredict : int;
  p_icache_miss : int;
  p_dcache_miss : int;
}

type outcome = Running | Stopped of trap

let string_of_trap = function
  | Trap_stub a -> Printf.sprintf "trap-stub(0x%x)" a
  | Rat_miss a -> Printf.sprintf "rat-miss(0x%x)" a
  | Exit c -> Printf.sprintf "exit(%d)" c
  | Shell -> "shell-spawned"
  | Fault (Bad_fetch a) -> Printf.sprintf "fault: bad fetch at 0x%x" a
  | Fault (Bad_access a) -> Printf.sprintf "fault: bad access at 0x%x" a
  | Fault (Cache_jump a) -> Printf.sprintf "fault: indirect jump into code cache 0x%x" a

exception Stop of trap

(* The syscall service fee and the RAT-lookup cycle are whole cycles,
   so their femtocycle forms are exact constants. *)
let fc_syscall = 40 * Cpu.fc_scale
let fc_rat_lookup = Cpu.fc_scale

(* Charge a memoized femtocycle amount (see the [q*]/[p_*] fields of
   [env] and {!Cpu.fc_scale}): one integer add on a mutable int
   field — no float work, no allocation, and an exact fold-back to
   the canonical float cycle count at every boundary. *)
let charge env fc =
  let p = env.cpu.perf in
  p.cycles_fc <- p.cycles_fc + fc

let dcache_access env addr =
  if not (Cache.access env.dcache addr) then charge env env.p_dcache_miss

let[@inline] icache_probe env pc =
  if not (Cache.access env.icache pc) then charge env env.p_icache_miss

let read_mem32 env addr =
  dcache_access env addr;
  env.cpu.perf.loads <- env.cpu.perf.loads + 1;
  Mem.read32 env.mem addr

let write_mem32 env addr v =
  dcache_access env addr;
  env.cpu.perf.stores <- env.cpu.perf.stores + 1;
  Mem.write32 env.mem addr v

let rval env = function
  | Minstr.Reg r -> env.cpu.regs.(r)
  | Minstr.Imm k -> k
  | Minstr.Mem { base; disp } -> read_mem32 env (env.cpu.regs.(base) + disp)

let wval env op v =
  match op with
  | Minstr.Reg r -> env.cpu.regs.(r) <- v
  | Minstr.Mem { base; disp } -> write_mem32 env (env.cpu.regs.(base) + disp) v
  | Minstr.Imm _ -> raise (Stop (Fault (Bad_fetch env.cpu.pc)))

let set_zs env v =
  env.cpu.flags.zf <- v = 0;
  env.cpu.flags.sf <- v < 0

(* Flag comparisons use [==]/[!=]: on [bool] (an immediate type)
   physical equality coincides with structural equality. [=] at a
   type the compiler knows to be [bool] or [int] compiles to the same
   single compare, so either spelling is free here. Generic compares,
   which call C, come from elsewhere: [=]/[compare] on a type
   variable (an unannotated helper such as the old [Cache.find_way]),
   a tuple, a record or an option; and Stdlib's [min]/[max], which
   are ordinary polymorphic functions and call C at any type, [int]
   included. *)
let eval_cond env (c : Minstr.cond) =
  let f = env.cpu.flags in
  match c with
  | Eq -> f.zf
  | Ne -> not f.zf
  | Lt -> f.sf != f.vf
  | Ge -> f.sf == f.vf
  | Gt -> (not f.zf) && f.sf == f.vf
  | Le -> f.zf || f.sf != f.vf
  | Ult -> f.cf
  | Uge -> not f.cf

let apply_binop env (op : Minstr.binop) a b =
  let f = env.cpu.flags in
  let r =
    match op with
    | Add ->
      f.cf <- W32.carry_add a b;
      f.vf <- W32.overflow_add a b;
      W32.add a b
    | Sub ->
      f.cf <- W32.borrow_sub a b;
      f.vf <- W32.overflow_sub a b;
      W32.sub a b
    | Mul ->
      f.cf <- false;
      f.vf <- false;
      W32.mul a b
    | Divs ->
      f.cf <- false;
      f.vf <- false;
      W32.sdiv a b
    | Rems ->
      f.cf <- false;
      f.vf <- false;
      W32.srem a b
    | And ->
      f.cf <- false;
      f.vf <- false;
      W32.logand a b
    | Or ->
      f.cf <- false;
      f.vf <- false;
      W32.logor a b
    | Xor ->
      f.cf <- false;
      f.vf <- false;
      W32.logxor a b
    | Shl ->
      f.cf <- false;
      f.vf <- false;
      W32.shl a b
    | Shr ->
      f.cf <- false;
      f.vf <- false;
      W32.shr a b
    | Sar ->
      f.cf <- false;
      f.vf <- false;
      W32.sar a b
  in
  set_zs env r;
  r

(* Per-op charge: mul/div pay their configured latencies (over
   throughput), everything else one issue slot. *)
let binop_charge env : Minstr.binop -> int = function
  | Mul -> env.qmul
  | Divs | Rems -> env.qdiv
  | Add | Sub | And | Or | Xor | Shl | Shr | Sar -> env.q1

let push env v =
  let sp = env.desc.sp in
  env.cpu.regs.(sp) <- env.cpu.regs.(sp) - 4;
  write_mem32 env env.cpu.regs.(sp) v

let pop env =
  let sp = env.desc.sp in
  let v = read_mem32 env env.cpu.regs.(sp) in
  env.cpu.regs.(sp) <- env.cpu.regs.(sp) + 4;
  v

let goto env target = env.cpu.pc <- target

(* Every return consults the RAT when one is present (the modified
   return macro-op): the popped value is a source address that must be
   translated before control transfer. *)
let return_to env src_target =
  env.cpu.perf.returns <- env.cpu.perf.returns + 1;
  match env.rat with
  | None ->
    if Layout.in_cache_region src_target then raise (Stop (Fault (Cache_jump src_target)));
    if not (Bpred.predict_return env.bpred ~target:src_target) then
      charge env env.p_mispredict;
    goto env src_target
  | Some rat ->
    charge env fc_rat_lookup (* the extra RAT-lookup cycle *);
    let translated = Rat.find_translated rat src_target in
    if translated >= 0 then begin
      if not (Bpred.predict_return env.bpred ~target:translated) then
        charge env env.p_mispredict;
      goto env translated
    end
    else raise (Stop (Rat_miss src_target))

let do_call env ~ret_addr ~target =
  env.cpu.perf.calls <- env.cpu.perf.calls + 1;
  if env.desc.call_pushes_ret then push env ret_addr
  else
    (match env.desc.lr with
    | Some lr -> env.cpu.regs.(lr) <- ret_addr
    | None -> assert false);
  goto env target

(* The per-run observability counters (instructions, syscalls) are
   batched: retirement only bumps the plain [perf] ints, and [run]
   deposits the deltas once at exit ([Obs.Metrics.add]), so
   [Obs.on] is consulted per run, not per instruction. *)
let do_syscall env =
  env.cpu.perf.syscalls <- env.cpu.perf.syscalls + 1;
  charge env fc_syscall;
  let number = env.cpu.regs.(0) in
  let args = (env.cpu.regs.(1), env.cpu.regs.(2), env.cpu.regs.(3)) in
  let result, outcome = Sys.handle env.os ~number ~args in
  env.cpu.regs.(0) <- result;
  match outcome with
  | Sys.Continue -> ()
  | Sys.Halt_exit c -> raise (Stop (Exit c))
  | Sys.Halt_shell -> raise (Stop Shell)

let exec env (i : Minstr.t) len =
  let pc = env.cpu.pc in
  let next = pc + len in
  match i with
  | Nop ->
    charge env env.q1;
    goto env next
  | Mov (d, s) ->
    charge env env.q1;
    let v = rval env s in
    wval env d v;
    goto env next
  | Lea (d, b, k) ->
    charge env env.q1;
    env.cpu.regs.(d) <- W32.add env.cpu.regs.(b) k;
    goto env next
  | Binop (op, d, s) ->
    charge env (binop_charge env op);
    let a = rval env d in
    let b = rval env s in
    wval env d (apply_binop env op a b);
    goto env next
  | Cmp (a, b) ->
    charge env env.q1;
    let va = rval env a in
    let vb = rval env b in
    let f = env.cpu.flags in
    f.cf <- W32.borrow_sub va vb;
    f.vf <- W32.overflow_sub va vb;
    set_zs env (W32.sub va vb);
    goto env next
  | Push s ->
    charge env env.q1;
    let v = rval env s in
    push env v;
    goto env next
  | Pop d ->
    charge env env.q1;
    let v = pop env in
    wval env d v;
    goto env next
  | Jmp t ->
    charge env env.q1;
    env.cpu.perf.branches <- env.cpu.perf.branches + 1;
    goto env t
  | Jcc (c, t) ->
    charge env env.q1;
    env.cpu.perf.branches <- env.cpu.perf.branches + 1;
    let taken = eval_cond env c in
    if not (Bpred.predict_cond env.bpred ~pc ~taken) then charge env env.p_mispredict;
    goto env (if taken then t else next)
  | Jmpr s ->
    charge env env.q1;
    env.cpu.perf.indirects <- env.cpu.perf.indirects + 1;
    let t = rval env s in
    if Layout.in_cache_region t then raise (Stop (Fault (Cache_jump t)));
    if not (Bpred.predict_indirect env.bpred ~pc ~target:t) then charge env env.p_mispredict;
    goto env t
  | Call t ->
    charge env env.q2;
    Bpred.push_ras env.bpred next;
    do_call env ~ret_addr:next ~target:t
  | Callr s ->
    charge env env.q2;
    env.cpu.perf.indirects <- env.cpu.perf.indirects + 1;
    let t = rval env s in
    if Layout.in_cache_region t then raise (Stop (Fault (Cache_jump t)));
    if not (Bpred.predict_indirect env.bpred ~pc ~target:t) then charge env env.p_mispredict;
    Bpred.push_ras env.bpred next;
    do_call env ~ret_addr:next ~target:t
  | Ret ->
    charge env env.q2;
    let v = pop env in
    return_to env v
  | Retr r ->
    charge env env.q2;
    return_to env env.cpu.regs.(r)
  | Retrat s ->
    charge env env.q2;
    let v = rval env s in
    return_to env v
  | Callrat { target; src_ret } ->
    charge env env.q2;
    (match env.rat with
    | Some rat -> Rat.insert rat ~src:src_ret ~translated:next
    | None -> ());
    Bpred.push_ras env.bpred next;
    do_call env ~ret_addr:src_ret ~target
  | Syscall ->
    do_syscall env;
    goto env next
  | Trap a -> raise (Stop (Trap_stub a))

(* ------------------------------------------------------------------ *)
(* The flat packed dispatcher, fused with its block loop: retire
   instructions from a block's [db_code] words until the fuel runs
   out, the block goes stale, or its tail is reached. This is the one
   fast retire path; [run_slow] -> [exec] is its oracle. Per retired
   instruction it performs *exactly* the model-visible work of the
   oracle — icache probe, instruction counter, then [exec]'s
   semantics on the equivalent [Minstr.t]: same charge first, same
   operand-effect order (source reads before destination writes,
   destination-first for binop reads), same counters, same faults —
   switching on the packed tag instead of matching variant blocks,
   with operands read straight from the int array. The staleness
   check before every instruction stands in for the oracle's
   per-instruction byte decode. Tag numbering is {!Packed}'s; the
   generic arms rebuild operands from the kind bits via the same
   helpers' semantics. Any change to [exec] MUST be mirrored here;
   the decode-cache on/off differentials (test_interp, test_fuzz,
   interp-smoke) exist to catch drift. *)

let pk_rval env k r v =
  if k = 1 then Array.unsafe_get env.cpu.regs r
  else if k = 2 then v
  else read_mem32 env (Array.unsafe_get env.cpu.regs r + v)

let pk_wval env k r v x =
  if k = 1 then Array.unsafe_set env.cpu.regs r x
  else if k = 3 then write_mem32 env (Array.unsafe_get env.cpu.regs r + v) x
  else raise (Stop (Fault (Bad_fetch env.cpu.pc)))

(* Loop result codes (plain ints so a block exit allocates nothing):
   0 = out of fuel, 1 = block stale, 2 = tail reached. The caller
   recovers the remaining fuel from the instruction-counter delta —
   the loop retires exactly one instruction per fuel unit consumed.
   Stop/Fault exceptions propagate to the caller's per-block handler,
   which applies the same conversion [exec_one] does. Top-level [let
   rec] with all state as arguments, not a local closure — the self
   tail-call must not allocate. *)
let rec packed_loop env (b : Decode_cache.block) code len k n =
  if n <= 0 then 0
  else if Decode_cache.stale b then 1
  else if k >= len then 2
  else begin
    let j = k lsl 2 in
    let pc = env.cpu.pc in
    icache_probe env pc;
    env.cpu.perf.instructions <- env.cpu.perf.instructions + 1;
    let m = Array.unsafe_get code j in
    let next = pc + ((m lsr 6) land 15) in
    (* the precomputed retirement charge (0 for Syscall/Trap, whose
       charging happens past this point), added before any operand
       effect — the same order as [exec]'s leading [charge] *)
    let p = env.cpu.perf in
    p.cycles_fc <- p.cycles_fc + Array.unsafe_get code (j + 3);
    let regs = env.cpu.regs in
    (match m land 63 with
    | 0 (* nop *) -> goto env next
    | 1 (* mov r,r *) ->
      Array.unsafe_set regs ((m lsr 18) land 15) (Array.unsafe_get regs ((m lsr 22) land 15));
      goto env next
    | 2 (* mov r,i *) ->
      Array.unsafe_set regs ((m lsr 18) land 15) (Array.unsafe_get code (j + 2));
      goto env next
    | 3 (* mov r,m *) ->
      let v =
        read_mem32 env (Array.unsafe_get regs ((m lsr 22) land 15) + Array.unsafe_get code (j + 2))
      in
      Array.unsafe_set regs ((m lsr 18) land 15) v;
      goto env next
    | 4 (* mov m,r *) ->
      let v = Array.unsafe_get regs ((m lsr 22) land 15) in
      write_mem32 env (Array.unsafe_get regs ((m lsr 18) land 15) + Array.unsafe_get code (j + 1)) v;
      goto env next
    | 5 (* mov m,i *) ->
      let v = Array.unsafe_get code (j + 2) in
      write_mem32 env (Array.unsafe_get regs ((m lsr 18) land 15) + Array.unsafe_get code (j + 1)) v;
      goto env next
    | 6 (* mov generic *) ->
      let v = pk_rval env ((m lsr 16) land 3) ((m lsr 22) land 15) (Array.unsafe_get code (j + 2)) in
      pk_wval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1)) v;
      goto env next
    | 7 (* lea *) ->
      Array.unsafe_set regs ((m lsr 18) land 15)
        (W32.add (Array.unsafe_get regs ((m lsr 22) land 15)) (Array.unsafe_get code (j + 1)));
      goto env next
    | 8 (* binop r,r *) ->
      let d = (m lsr 18) land 15 in
      let a = Array.unsafe_get regs d in
      let b = Array.unsafe_get regs ((m lsr 22) land 15) in
      Array.unsafe_set regs d
        (apply_binop env (Array.unsafe_get Minstr.all_binops ((m lsr 10) land 15)) a b);
      goto env next
    | 9 (* binop r,i *) ->
      let d = (m lsr 18) land 15 in
      let a = Array.unsafe_get regs d in
      let b = Array.unsafe_get code (j + 2) in
      Array.unsafe_set regs d
        (apply_binop env (Array.unsafe_get Minstr.all_binops ((m lsr 10) land 15)) a b);
      goto env next
    | 10 (* binop generic *) ->
      let k1 = (m lsr 14) land 3 and r1 = (m lsr 18) land 15 in
      let v1 = Array.unsafe_get code (j + 1) in
      let a = pk_rval env k1 r1 v1 in
      let b = pk_rval env ((m lsr 16) land 3) ((m lsr 22) land 15) (Array.unsafe_get code (j + 2)) in
      pk_wval env k1 r1 v1
        (apply_binop env (Array.unsafe_get Minstr.all_binops ((m lsr 10) land 15)) a b);
      goto env next
    | 11 (* cmp r,r *) ->
      let va = Array.unsafe_get regs ((m lsr 18) land 15) in
      let vb = Array.unsafe_get regs ((m lsr 22) land 15) in
      let f = env.cpu.flags in
      f.cf <- W32.borrow_sub va vb;
      f.vf <- W32.overflow_sub va vb;
      set_zs env (W32.sub va vb);
      goto env next
    | 12 (* cmp r,i *) ->
      let va = Array.unsafe_get regs ((m lsr 18) land 15) in
      let vb = Array.unsafe_get code (j + 2) in
      let f = env.cpu.flags in
      f.cf <- W32.borrow_sub va vb;
      f.vf <- W32.overflow_sub va vb;
      set_zs env (W32.sub va vb);
      goto env next
    | 13 (* cmp r,m *) ->
      let va = Array.unsafe_get regs ((m lsr 18) land 15) in
      let vb =
        read_mem32 env (Array.unsafe_get regs ((m lsr 22) land 15) + Array.unsafe_get code (j + 2))
      in
      let f = env.cpu.flags in
      f.cf <- W32.borrow_sub va vb;
      f.vf <- W32.overflow_sub va vb;
      set_zs env (W32.sub va vb);
      goto env next
    | 14 (* cmp generic *) ->
      let va =
        pk_rval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1))
      in
      let vb =
        pk_rval env ((m lsr 16) land 3) ((m lsr 22) land 15) (Array.unsafe_get code (j + 2))
      in
      let f = env.cpu.flags in
      f.cf <- W32.borrow_sub va vb;
      f.vf <- W32.overflow_sub va vb;
      set_zs env (W32.sub va vb);
      goto env next
    | 15 (* push r *) ->
      push env (Array.unsafe_get regs ((m lsr 18) land 15));
      goto env next
    | 16 (* push i *) ->
      push env (Array.unsafe_get code (j + 1));
      goto env next
    | 17 (* push generic *) ->
      let v =
        pk_rval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1))
      in
      push env v;
      goto env next
    | 18 (* pop r *) ->
      let v = pop env in
      Array.unsafe_set regs ((m lsr 18) land 15) v;
      goto env next
    | 19 (* pop generic *) ->
      let v = pop env in
      pk_wval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1)) v;
      goto env next
    | 20 (* jmp *) ->
      p.branches <- p.branches + 1;
      goto env (Array.unsafe_get code (j + 1))
    | 21 (* jcc *) ->
      p.branches <- p.branches + 1;
      let taken = eval_cond env (Array.unsafe_get Minstr.all_conds ((m lsr 10) land 15)) in
      if not (Bpred.predict_cond env.bpred ~pc ~taken) then charge env env.p_mispredict;
      goto env (if taken then Array.unsafe_get code (j + 1) else next)
    | 22 (* jmp *r *) ->
      p.indirects <- p.indirects + 1;
      let t = Array.unsafe_get regs ((m lsr 18) land 15) in
      if Layout.in_cache_region t then raise (Stop (Fault (Cache_jump t)));
      if not (Bpred.predict_indirect env.bpred ~pc ~target:t) then charge env env.p_mispredict;
      goto env t
    | 23 (* jmp * generic *) ->
      p.indirects <- p.indirects + 1;
      let t =
        pk_rval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1))
      in
      if Layout.in_cache_region t then raise (Stop (Fault (Cache_jump t)));
      if not (Bpred.predict_indirect env.bpred ~pc ~target:t) then charge env env.p_mispredict;
      goto env t
    | 24 (* call *) ->
      Bpred.push_ras env.bpred next;
      do_call env ~ret_addr:next ~target:(Array.unsafe_get code (j + 1))
    | 25 (* call *r *) ->
      p.indirects <- p.indirects + 1;
      let t = Array.unsafe_get regs ((m lsr 18) land 15) in
      if Layout.in_cache_region t then raise (Stop (Fault (Cache_jump t)));
      if not (Bpred.predict_indirect env.bpred ~pc ~target:t) then charge env env.p_mispredict;
      Bpred.push_ras env.bpred next;
      do_call env ~ret_addr:next ~target:t
    | 26 (* call * generic *) ->
      p.indirects <- p.indirects + 1;
      let t =
        pk_rval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1))
      in
      if Layout.in_cache_region t then raise (Stop (Fault (Cache_jump t)));
      if not (Bpred.predict_indirect env.bpred ~pc ~target:t) then charge env env.p_mispredict;
      Bpred.push_ras env.bpred next;
      do_call env ~ret_addr:next ~target:t
    | 27 (* ret *) ->
      let v = pop env in
      return_to env v
    | 28 (* ret r *) -> return_to env (Array.unsafe_get regs ((m lsr 18) land 15))
    | 29 (* ret.rat r *) -> return_to env (Array.unsafe_get regs ((m lsr 18) land 15))
    | 30 (* ret.rat generic *) ->
      let v =
        pk_rval env ((m lsr 14) land 3) ((m lsr 18) land 15) (Array.unsafe_get code (j + 1))
      in
      return_to env v
    | 31 (* call.rat *) ->
      let src_ret = Array.unsafe_get code (j + 2) in
      (match env.rat with
      | Some rat -> Rat.insert rat ~src:src_ret ~translated:next
      | None -> ());
      Bpred.push_ras env.bpred next;
      do_call env ~ret_addr:src_ret ~target:(Array.unsafe_get code (j + 1))
    | 32 (* syscall *) ->
      do_syscall env;
      goto env next
    | 33 (* trap *) -> raise (Stop (Trap_stub (Array.unsafe_get code (j + 1))))
    | _ -> assert false);
    packed_loop env b code len (k + 1) (n - 1)
  end

let stopped env t =
  (match t with
  | Fault _ -> if Obs.on env.obs then Obs.Metrics.incr env.ctrs.cn_faults
  | Trap_stub _ | Rat_miss _ | Exit _ | Shell -> ());
  Stopped t

(* Retire one already-decoded instruction: counters, execution, trap
   conversion — the oracle's retire step, also taken by the cached
   dispatcher for an address no block forms at. (The observability
   instruction counter is batched — deposited from the perf delta at
   run exit — so retirement itself only bumps the plain int.) *)
let exec_one env (i : Minstr.t) len =
  env.cpu.perf.instructions <- env.cpu.perf.instructions + 1;
  try
    exec env i len;
    Running
  with
  | Stop t -> stopped env t
  | Mem.Fault a -> stopped env (Fault (Bad_access a))

(* The inter-block boundary gate, shared verbatim by the slow loop,
   the cached dispatcher and (through the dispatcher) every followed
   chain link. The order is load-bearing and must never be reordered
   by a fast path: fuel first (an exhausted run has to pause *before*
   inspecting pc — the quantum boundary is model-visible), then the
   exit sentinel, then execution at pc. The cached path additionally
   re-checks block staleness before every instruction; that check
   lives in [packed_loop], after this gate, standing in for the byte
   re-decode the slow path does implicitly. *)
type gate = Out_of_fuel | At_exit | Proceed

let boundary_gate env n =
  if n <= 0 then Out_of_fuel
  else if env.cpu.pc = Layout.exit_sentinel then At_exit
  else Proceed

(* Decode and retire the instruction at pc. Callers must have passed
   [boundary_gate] (pc is not the sentinel, fuel remains). *)
let step_here env =
  let pc = env.cpu.pc in
  icache_probe env pc;
  match Isa.decode env.desc.which ~read:env.reader pc with
  | None -> stopped env (Fault (Bad_fetch pc))
  | Some (i, len) -> exec_one env i len

let run_slow env ~fuel =
  let rec go n =
    match boundary_gate env n with
    | Out_of_fuel -> None
    | At_exit -> Some (Exit env.cpu.regs.(env.desc.ret_reg))
    | Proceed -> ( match step_here env with Running -> go (n - 1) | Stopped t -> Some t)
  in
  go fuel

(* The cached fast path. Per retired instruction it performs exactly
   the same model-visible work as the slow loop — boundary gate (fuel,
   then exit sentinel: a cached block can never contain the sentinel,
   since every watched region lies above it and only control
   transfers, which end blocks, can move pc there), icache probe,
   counters, execution — with the per-instruction byte decode replaced
   by an array read plus one generation compare. A stale block (some
   write landed in its region since decode, possibly by the previous
   instruction of this very block) is dropped and re-looked-up before
   anything is charged, so self-modifying code sees exactly the
   semantics of per-instruction decode.

   Blocks retire through [packed_loop], which inlines [exec_one]'s
   retire sequence (instruction counter, execute, then the Stop/Fault
   conversion in [exec_block]) against [exec]'s semantics; [run_slow]
   is the oracle it must match, and test/test_interp.ml's decode-cache
   on/off differentials exist to catch a mismatch.

   Nothing on this path allocates: block probes are the exception- or
   index-style [find]/[follow_idx] (no options), the predecessor
   block is threaded as a plain argument ([dispatch_pred]) instead of
   an option, and counter work is plain int stores.

   Chaining: when a block finishes cleanly it becomes the
   predecessor for the next dispatch, which first probes its
   successor links ([Decode_cache.follow_idx]) and only falls back to
   the hashtable probe ([find], then [patch]ing the link in) on a
   miss. Neither probe nor link maintenance does any model-visible
   work, and the gate runs before the link probe, so chaining cannot
   reorder the fuel/sentinel checks; the oracle differentials in
   test/test_interp.ml check both, and that the links were really
   patched and broken. *)
let run_cached env dc ~fuel =
  let open Decode_cache in
  let rec dispatch_first n =
    match boundary_gate env n with
    | Out_of_fuel -> None
    | At_exit -> Some (Exit env.cpu.regs.(env.desc.ret_reg))
    | Proceed -> probe_first env.cpu.pc n
  and dispatch_pred (pred : block) n =
    match boundary_gate env n with
    | Out_of_fuel -> None
    | At_exit -> Some (Exit env.cpu.regs.(env.desc.ret_reg))
    | Proceed ->
      let pc = env.cpu.pc in
      let i = follow_idx dc pred pc in
      if i >= 0 then exec_block (Array.unsafe_get pred.db_succs i).sc_blk 0 n
      else probe_pred pred pc n
  and probe_first pc n =
    match find dc pc with
    | b -> exec_block b 0 n
    | exception Not_found -> single n
  and probe_pred pred pc n =
    match find dc pc with
    | b ->
      patch dc pred ~pc b;
      exec_block b 0 n
    | exception Not_found -> single n
  and single n =
    (* uncacheable address (outside watched regions, or no block
       forms): plain single step, and no link to install *)
    match step_here env with
    | Running -> dispatch_first (n - 1)
    | Stopped t -> Some t
  and block_tail b n =
    if b.db_bad then begin
      (* decode fails at [db_end], where pc now points: replicate the
         failed-decode step (probe, then fault) without re-decoding *)
      icache_probe env b.db_end;
      match stopped env (Fault (Bad_fetch b.db_end)) with
      | Stopped t -> Some t
      | Running -> assert false
    end
    else dispatch_pred b n
  and exec_block b k n =
    (* the whole per-instruction loop, staleness and boundary checks
       included, lives in [packed_loop]; remaining fuel is the entry
       fuel minus the retired-instruction delta *)
    let p = env.cpu.perf in
    let i0 = p.instructions in
    match packed_loop env b b.db_code (Array.length b.db_code lsr 2) k n with
    | st -> (
      let n = n - (p.instructions - i0) in
      match st with
      | 0 -> None
      | 1 ->
        drop dc b;
        dispatch_first n
      | _ -> block_tail b n)
    | exception Stop t -> (
      match stopped env t with Stopped t -> Some t | Running -> assert false)
    | exception Mem.Fault a -> (
      match stopped env (Fault (Bad_access a)) with
      | Stopped t -> Some t
      | Running -> assert false)
  in
  dispatch_first fuel

(* Deposit the batched observability counts: the per-run deltas of
   the plain perf ints. Runs are the only places retirement happens,
   and exports only ever read the registry between runs, so exported
   values are identical to per-instruction increments. *)
let deposit_obs env ~instrs0 ~syscalls0 =
  if Obs.on env.obs then begin
    let p = env.cpu.perf in
    Obs.Metrics.add env.ctrs.cn_instrs (p.instructions - instrs0);
    Obs.Metrics.add env.ctrs.cn_syscalls (p.syscalls - syscalls0)
  end

let run env ~fuel =
  let p = env.cpu.perf in
  let instrs0 = p.instructions and syscalls0 = p.syscalls in
  let r =
    match env.dcode with
    | Some dc -> run_cached env dc ~fuel
    | None -> run_slow env ~fuel
  in
  deposit_obs env ~instrs0 ~syscalls0;
  r
