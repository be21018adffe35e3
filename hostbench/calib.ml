(* Host-speed calibration.

   A shared 2-vCPU VM changes speed in phases that last from seconds
   to minutes (a busy neighbour on the same physical core, memory
   contention): the same job can take 1.45x as long as it did a minute
   earlier. [run] times a fixed kernel that shares no code with the
   simulator, a small register-machine interpreter over a 4 MiB buffer
   followed by one sweep of the buffer, which takes about a millisecond.
   Run between jobs, it measures the host's current speed; [scale]
   divides a job's time by the kernel's time around it, which removes
   most of the drift. [reference_s] fixes the unit: a scaled time is
   the time the job would take on a host where the kernel takes
   [reference_s].

   The kernel allocates nothing on the OCaml heap, so its time does not
   depend on the simulator's heap or GC state. *)

let reference_s = 0.001
let mem = Bytes.make (4 * 1024 * 1024) '\001'
let mask = Bytes.length mem - 1
let prog = Array.init 64 (fun i -> (i * 7919) land 7)
let regs = Array.make 8 1
let iterations = 3_000

let kernel () =
  Array.fill regs 0 8 1;
  let acc = ref 0 in
  for _ = 1 to iterations do
    for i = 0 to Array.length prog - 1 do
      let r = i land 7 in
      match Array.unsafe_get prog i with
      | 0 -> regs.(r) <- regs.(r) + 1
      | 1 -> regs.(r) <- regs.(r) lxor (regs.((r + 1) land 7) lsl 1)
      | 2 -> acc := !acc + regs.(r)
      | 3 -> regs.(r) <- regs.(r) * 3
      | 4 -> if regs.(r) land 1 = 0 then decr acc
      | 5 -> regs.(r) <- Char.code (Bytes.unsafe_get mem (regs.(r) land mask))
      | 6 -> Bytes.unsafe_set mem (!acc * 64 land mask) 'a'
      | _ -> regs.(r) <- regs.(r) lsr 1
    done
  done;
  Bytes.fill mem 0 (Bytes.length mem) '\001';
  !acc

let time_kernel () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Spans.seconds_between t0 (Spans.now_ns ())

(* Seconds the kernel takes now: the median of three runs, so one run
   stretched by an interrupt or a descheduled vCPU does not count. *)
let run () =
  let a = time_kernel () in
  let b = time_kernel () in
  let c = time_kernel () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* [raw] seconds measured between kernel times [before] and [after],
   at the reference speed. *)
let scale ~before ~after raw = raw *. reference_s /. ((before +. after) /. 2.)
