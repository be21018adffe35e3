(* Zero-dependency observability: monotonic counters, log2-bucketed
   histograms, phase spans and the audit log. Each model fact is
   recorded once, in one of the four; host state (the decode cache's
   statistics, say) stays with the component that owns it.

   Every instrumented site in the simulator guards its work with
   [if Obs.on obs then ...], so the disabled path costs exactly one
   load-and-branch. Counter and histogram handles are resolved by name
   once, at component-creation time — never on a hot path.

   One domain at a time: an enabled context is written only by the
   domain running its simulation, and a child context (a fleet shard's)
   is handed to one domain per wave and folded into its parent after
   the barrier. So counters are plain ints and nothing here takes a
   lock. The disabled context holds nothing and is never written: its
   registry hands out one shared inert handle per kind and registers
   no name, its child is itself and merging it does nothing, so any
   number of domains may share it. *)

module Metrics = struct
  type counter = { c_name : string; mutable c_value : int }

  let n_buckets = 32

  type histogram = {
    h_name : string;
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_buckets : int array;
  }

  type t = {
    live : bool;  (* false only for the disabled context's registry *)
    mutable rev_counters : counter list;
    mutable rev_histograms : histogram list;
    by_name : (string, [ `C of counter | `H of histogram ]) Hashtbl.t;
  }

  let registry live = { live; rev_counters = []; rev_histograms = []; by_name = Hashtbl.create 64 }
  let create () = registry true

  let new_histogram name =
    {
      h_name = name;
      h_count = 0;
      h_sum = 0.;
      h_min = 0.;
      h_max = 0.;
      h_buckets = Array.make n_buckets 0;
    }

  (* What a registry that is not live hands out: no site writes them,
     since every write checks [Obs.on] first. *)
  let inert_counter = { c_name = ""; c_value = 0 }
  let inert_histogram = new_histogram ""

  let counter t name =
    if not t.live then inert_counter
    else
      match Hashtbl.find_opt t.by_name name with
      | Some (`C c) -> c
      | Some (`H _) -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " is a histogram")
      | None ->
        let c = { c_name = name; c_value = 0 } in
        Hashtbl.replace t.by_name name (`C c);
        t.rev_counters <- c :: t.rev_counters;
        c

  let histogram t name =
    if not t.live then inert_histogram
    else
      match Hashtbl.find_opt t.by_name name with
      | Some (`H h) -> h
      | Some (`C _) -> invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " is a counter")
      | None ->
        let h = new_histogram name in
        Hashtbl.replace t.by_name name (`H h);
        t.rev_histograms <- h :: t.rev_histograms;
        h

  let incr ?(by = 1) c =
    if by < 0 then invalid_arg "Obs.Metrics.incr: counters are monotonic";
    c.c_value <- c.c_value + by

  (* Batched deposit: like [incr ~by] but with a plain int argument —
     no option construction — and tolerant of zero. The interpreter
     accumulates per-block/per-run counts in plain mutable ints and
     deposits them here at run boundaries, so per-instruction
     retirement does no counter work at all. *)
  let add c n =
    if n < 0 then invalid_arg "Obs.Metrics.add: counters are monotonic";
    c.c_value <- c.c_value + n

  let value c = c.c_value

  (* bucket 0: v < 1; bucket i >= 1: 2^(i-1) <= v < 2^i (last is open) *)
  let bucket_of v =
    if v < 1. then 0
    else
      let b = 1 + int_of_float (Float.log2 v) in
      if b >= n_buckets then n_buckets - 1 else b

  let observe h v =
    if h.h_count = 0 then begin
      h.h_min <- v;
      h.h_max <- v
    end
    else begin
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v
    end;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  type histogram_summary = {
    hs_count : int;
    hs_sum : float;
    hs_min : float;
    hs_max : float;
    hs_mean : float;
    hs_buckets : int array;
  }

  (* Estimate the q-quantile of the observed distribution from the
     log2 bucket counts: find the bucket where the cumulative count
     crosses rank q*count, interpolate linearly inside it, and clamp
     to the exact observed [min, max] (which also bounds the
     open-ended last bucket). The estimate is exact for the ranks the
     tail report cares about whenever a bucket holds a single distinct
     value, and never off by more than one bucket width otherwise. *)
  let quantile (h : histogram_summary) q =
    if q < 0. || q > 1. then invalid_arg "Obs.Metrics.quantile: q outside [0, 1]";
    if h.hs_count = 0 then 0.
    else begin
      let rank = q *. float_of_int h.hs_count in
      let n = Array.length h.hs_buckets in
      let rec go i cum =
        if i >= n then h.hs_max
        else
          let c = h.hs_buckets.(i) in
          let cum' = cum + c in
          if c > 0 && float_of_int cum' >= rank then begin
            let lo = if i = 0 then 0. else Float.pow 2. (float_of_int (i - 1)) in
            let hi = if i = 0 then 1. else Float.pow 2. (float_of_int i) in
            let frac = (rank -. float_of_int cum) /. float_of_int c in
            let v = lo +. ((hi -. lo) *. Float.max 0. frac) in
            Float.min h.hs_max (Float.max h.hs_min v)
          end
          else go (i + 1) cum'
      in
      go 0 0
    end

  let p50 h = quantile h 0.5
  let p95 h = quantile h 0.95
  let p99 h = quantile h 0.99

  type snapshot = {
    snap_counters : (string * int) list;
    snap_histograms : (string * histogram_summary) list;
  }

  let summarize h =
    {
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_min = h.h_min;
      hs_max = h.h_max;
      hs_mean = (if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count);
      hs_buckets = Array.copy h.h_buckets;
    }

  let snapshot t =
    {
      snap_counters =
        List.sort compare (List.rev_map (fun c -> (c.c_name, value c)) t.rev_counters);
      snap_histograms =
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          (List.rev_map (fun h -> (h.h_name, summarize h)) t.rev_histograms);
    }

  let counter_value snap name =
    match List.assoc_opt name snap.snap_counters with Some v -> v | None -> 0

  let histogram_summary snap name = List.assoc_opt name snap.snap_histograms

  let empty_summary =
    {
      hs_count = 0;
      hs_sum = 0.;
      hs_min = 0.;
      hs_max = 0.;
      hs_mean = 0.;
      hs_buckets = Array.make n_buckets 0;
    }

  (* Bucket bounds shared by the quantile, tail-count and delta
     estimators. Bucket 0 has no finite lower bound of its own (it
     holds every v < 1, negatives included), so callers substitute the
     observed minimum. *)
  let bucket_lo i = if i = 0 then neg_infinity else Float.pow 2. (float_of_int (i - 1))
  let bucket_hi i = if i = 0 then 1. else Float.pow 2. (float_of_int i)

  (* Estimated number of observations strictly above [threshold]:
     full buckets above it count whole, the bucket containing it
     contributes a linearly interpolated fraction, bucket bounds
     clamped to the observed [min, max] (which also closes the
     open-ended last bucket). Deterministic, and exact whenever no
     bucket straddles the threshold. *)
  let count_above (h : histogram_summary) threshold =
    if h.hs_count = 0 then 0.
    else begin
      let n = Array.length h.hs_buckets in
      let total = ref 0. in
      for i = 0 to n - 1 do
        let c = h.hs_buckets.(i) in
        if c > 0 then begin
          let lo = Float.max (bucket_lo i) h.hs_min in
          let hi = if i = n - 1 then h.hs_max else Float.min (bucket_hi i) h.hs_max in
          let hi = Float.max hi lo in
          if threshold < lo then total := !total +. float_of_int c
          else if threshold < hi then
            total := !total +. (float_of_int c *. ((hi -. threshold) /. (hi -. lo)))
        end
      done;
      !total
    end

  (* The window-delta of two cumulative summaries of the same
     histogram: count, sum and buckets subtract exactly; min/max are
     re-derived from the delta buckets' bounds clamped to the overall
     observed range (the per-window extrema themselves are not
     recoverable from cumulative state). A deterministic estimate —
     the quantile interpolation over a delta is therefore never off by
     more than one bucket width, same as over a cumulative summary. *)
  let delta ~base (h : histogram_summary) =
    let count = h.hs_count - base.hs_count in
    if count <= 0 then empty_summary
    else begin
      let n = Array.length h.hs_buckets in
      let buckets =
        Array.init n (fun i ->
            let b = if i < Array.length base.hs_buckets then base.hs_buckets.(i) else 0 in
            max 0 (h.hs_buckets.(i) - b))
      in
      let first = ref (-1) and last = ref (-1) in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            if !first < 0 then first := i;
            last := i
          end)
        buckets;
      let hs_min = if !first < 0 then h.hs_min else Float.max (bucket_lo !first) h.hs_min in
      let hs_max =
        if !last < 0 then h.hs_max
        else if !last = n - 1 then h.hs_max
        else Float.min (bucket_hi !last) h.hs_max
      in
      let sum = h.hs_sum -. base.hs_sum in
      {
        hs_count = count;
        hs_sum = sum;
        hs_min;
        hs_max = Float.max hs_max hs_min;
        hs_mean = sum /. float_of_int count;
        hs_buckets = buckets;
      }
    end

  (* Combine two summaries of disjoint observation sets (used when a
     window accumulates deltas from several sources). *)
  let combine_summaries a b =
    if a.hs_count = 0 then b
    else if b.hs_count = 0 then a
    else
      let n = max (Array.length a.hs_buckets) (Array.length b.hs_buckets) in
      let at (s : histogram_summary) i = if i < Array.length s.hs_buckets then s.hs_buckets.(i) else 0 in
      let count = a.hs_count + b.hs_count in
      let sum = a.hs_sum +. b.hs_sum in
      {
        hs_count = count;
        hs_sum = sum;
        hs_min = Float.min a.hs_min b.hs_min;
        hs_max = Float.max a.hs_max b.hs_max;
        hs_mean = sum /. float_of_int count;
        hs_buckets = Array.init n (fun i -> at a i + at b i);
      }

  (* Fold a snapshot into a live registry: counters add, histograms
     combine exactly (count/sum/min/max/buckets are all mergeable).
     Folds per-shard contexts back into the parent after a run, and a
     restored image's counters into its new context. A registry that
     is not live takes nothing. *)
  let merge ~into:t snap =
    if t.live then begin
      List.iter
        (fun (name, v) -> if v > 0 then incr ~by:v (counter t name))
        snap.snap_counters;
      List.iter
        (fun (name, (s : histogram_summary)) ->
          if s.hs_count > 0 then begin
            let h = histogram t name in
            if h.h_count = 0 then begin
              h.h_min <- s.hs_min;
              h.h_max <- s.hs_max
            end
            else begin
              if s.hs_min < h.h_min then h.h_min <- s.hs_min;
              if s.hs_max > h.h_max then h.h_max <- s.hs_max
            end;
            h.h_count <- h.h_count + s.hs_count;
            h.h_sum <- h.h_sum +. s.hs_sum;
            Array.iteri
              (fun i n -> if i < n_buckets then h.h_buckets.(i) <- h.h_buckets.(i) + n)
              s.hs_buckets
          end)
        snap.snap_histograms
    end
end

(* Nestable, cycle-stamped phase spans. A span attributes a stretch of
   *simulated* cycles (the deterministic clock of the machine/core it
   ran on, not wall time) to a named phase: translate, exec,
   stack_transform, migration, context_switch_flush, schedule.

   Nesting is implicit: each store keeps the stack of its open spans,
   so a translate span begun while an exec span is open records that
   exec span as its parent without any handle threading through the
   machine layers. This is sound because a store belongs to one
   context, which one domain writes at a time, and a CMP runs one
   slice of one process at a time: spans open and close in LIFO order
   even when processes interleave.

   Completed spans accumulate in an unbounded list. The exporters
   re-sort them by content (see Export), so a file depends on the
   spans recorded, not on their ids or completion order. *)
module Span = struct
  (* host-allocation self-attribution marks, live only while a
     Hostprof is attached to the owning context (see Hostprof):
     [mark] is the Gc.minor_words reading when the span last became
     the youngest open span of its store, [self_words] the words
     charged to it so far. All fields are floats, so the record is
     stored flat and a store to either boxes nothing. *)
  type words = { mutable mark : float; mutable self_words : float }

  type span = {
    sp_id : int;
    sp_parent : int option;
    sp_name : string;
    sp_attrs : (string * string) list;
    sp_begin : float;
    mutable sp_end : float;
    sp_words : words;
  }

  type t = {
    mutable next_id : int;
    mutable rev_done : span list;
    mutable open_spans : span list;  (* youngest first *)
  }

  let create () = { next_id = 0; rev_done = []; open_spans = [] }

  let enter t ~name ?(attrs = []) ~cycle () =
    let id = t.next_id in
    t.next_id <- id + 1;
    let sp =
      {
        sp_id = id;
        sp_parent = (match t.open_spans with parent :: _ -> Some parent.sp_id | [] -> None);
        sp_name = name;
        sp_attrs = attrs;
        sp_begin = cycle;
        sp_end = Float.nan;
        sp_words = { mark = 0.; self_words = 0. };
      }
    in
    t.open_spans <- sp :: t.open_spans;
    sp

  let exit t sp ~cycle =
    sp.sp_end <- (if cycle < sp.sp_begin then sp.sp_begin else cycle);
    (t.open_spans <-
       match t.open_spans with
       | top :: rest when top == sp -> rest
       | l -> List.filter (fun open_sp -> open_sp != sp) l);
    t.rev_done <- sp :: t.rev_done

  let completed t = List.rev t.rev_done
  let count t = List.length t.rev_done

  let id sp = sp.sp_id
  let parent_id sp = sp.sp_parent
  let name sp = sp.sp_name
  let attrs sp = sp.sp_attrs
  let attr sp key = List.assoc_opt key sp.sp_attrs
  let begin_cycle sp = sp.sp_begin
  let end_cycle sp = if Float.is_nan sp.sp_end then sp.sp_begin else sp.sp_end
  let duration sp = end_cycle sp -. sp.sp_begin

  (* Content-only ordering (ids excluded): any permutation of the same
     multiset of spans sorts to the same sequence, so an export does
     not depend on the order spans completed or stores were merged in.
     Identical-content ties are harmless — swapping equal elements
     changes neither serialization nor float summation. *)
  let canonical spans =
    List.sort
      (fun a b ->
        compare
          (a.sp_begin, end_cycle a, a.sp_name, a.sp_attrs)
          (b.sp_begin, end_cycle b, b.sp_name, b.sp_attrs))
      spans

  let total t ~name:n =
    List.fold_left
      (fun acc sp -> if sp.sp_name = n then acc +. duration sp else acc)
      0.
      (canonical (completed t))

  (* Fold a finished child store into [into], re-basing ids but
     preserving the child's internal parent links and insertion
     order. *)
  let merge ~into src =
    let spans = completed src in
    let base = into.next_id in
    let remap = Hashtbl.create 64 in
    List.iteri (fun i sp -> Hashtbl.replace remap sp.sp_id (base + i)) spans;
    into.next_id <- base + List.length spans;
    List.iter
      (fun sp ->
        let copy =
          {
            sp with
            sp_id = Hashtbl.find remap sp.sp_id;
            sp_parent =
              (match sp.sp_parent with None -> None | Some p -> Hashtbl.find_opt remap p);
          }
        in
        into.rev_done <- copy :: into.rev_done)
      spans
end

(* The forensic record the security story needs: every suspicious
   control transfer, every migration decision and its outcome, every
   process kill — unbounded, cycle-stamped, and queryable from
   tests. *)
module Audit = struct
  type kind =
    | Suspicious of { target_src : int }
    | Decision of { target_src : int; migrate : bool; forced : bool }
    | Migration of {
        to_isa : string;
        forced : bool;
        frames : int;
        words : int;
        cost_cycles : float;
        outcome : string;  (* "resumed" or "killed" *)
      }
    | Fault of { reason : string }
    | Sched_migrate of { core : int; security : bool }

  type entry = { au_seq : int; au_cycle : float; au_isa : string; au_pid : int; au_kind : kind }

  type t = { mutable next_seq : int; mutable rev_entries : entry list }

  let create () = { next_seq = 0; rev_entries = [] }

  let record t ~cycle ~isa ~pid kind =
    let e = { au_seq = t.next_seq; au_cycle = cycle; au_isa = isa; au_pid = pid; au_kind = kind } in
    t.next_seq <- t.next_seq + 1;
    t.rev_entries <- e :: t.rev_entries;
    e

  let entries t = List.rev t.rev_entries
  let length t = t.next_seq
  let count t p = List.length (List.filter p (entries t))

  let kind_label = function
    | Suspicious _ -> "suspicious"
    | Decision _ -> "decision"
    | Migration _ -> "migration"
    | Fault _ -> "fault"
    | Sched_migrate _ -> "sched-migrate"

  let merge ~into src =
    List.iter
      (fun e ->
        into.rev_entries <- { e with au_seq = into.next_seq } :: into.rev_entries;
        into.next_seq <- into.next_seq + 1)
      (entries src)
end

(* Host-side GC/allocation profiling: Gc counters sampled at span
   boundaries and around whole runs. Everything here measures the
   *host* OCaml process — minor-heap words allocated while a phase
   span was the youngest open span of its store, Gc.quick_stat deltas
   over a run — so the numbers vary with the OCaml version, inlining
   decisions and what else the process runs. Hostprof output is
   therefore exported in a clearly partitioned non-deterministic
   section and is excluded from the -j1/-j4 byte-identity contract
   (the deterministic timeline and metrics still satisfy it; the
   exporters only include hostprof when explicitly asked).

   Attribution discipline: when a hostprof is attached to a context,
   enter_span/exit_span bracket the store's span stack with
   Gc.minor_words readings — entering a child charges the parent up
   to "now" and pauses it; exiting charges the child and restarts the
   parent's mark — so each phase accumulates *self* words, children
   excluded, the same self-time discipline the folded exporter uses
   for cycles. A bracket ({!hostprof_phase}) is a hostprof-only phase
   around work that opens no span. Its words go to its phase and to
   its context's [pending], both float arrays, which take an unboxed
   add; the next charge of the youngest open span, the bracket's
   parent, subtracts [pending]. The profiler's own bookkeeping
   allocates nothing once a phase has an entry: the marks are a flat
   float record and [note] is inlined into its callers. *)
module Hostprof = struct
  type run_delta = {
    hd_minor_words : float;
    hd_promoted_words : float;
    hd_major_words : float;
    hd_minor_collections : int;
    hd_major_collections : int;
    hd_instructions : int;  (* retired guest instructions, caller-supplied *)
  }

  type t = {
    phases : (string, float array) Hashtbl.t;  (* [| entries; minor words |] *)
    mutable run_base : (Gc.stat * float) option;
        (* quick_stat only folds minor words in at collection
           boundaries, so the precise allocation pointer
           [Gc.minor_words ()] is carried alongside it *)
    mutable run : run_delta option;
  }

  let create () = { phases = Hashtbl.create 16; run_base = None; run = None }

  (* [@inline], so the caller's [words] stays unboxed. *)
  let[@inline] note_n t ~phase ~n ~words =
    match Hashtbl.find t.phases phase with
    | a ->
      a.(0) <- a.(0) +. n;
      a.(1) <- a.(1) +. words
    | exception Not_found -> Hashtbl.replace t.phases phase [| n; words |]

  let[@inline] note t ~phase ~words = note_n t ~phase ~n:1. ~words

  let merge ~into src =
    Hashtbl.iter (fun phase a -> note_n into ~phase ~n:a.(0) ~words:a.(1)) src.phases

  let phases t =
    List.sort compare
      (Hashtbl.fold (fun n a acc -> (n, int_of_float a.(0), a.(1)) :: acc) t.phases [])

  let start_run t = t.run_base <- Some (Gc.quick_stat (), Gc.minor_words ())

  let stop_run t ~instructions =
    match t.run_base with
    | None -> ()
    | Some (b, b_minor) ->
      let a = Gc.quick_stat () in
      let a_minor = Gc.minor_words () in
      t.run_base <- None;
      t.run <-
        Some
          {
            hd_minor_words = a_minor -. b_minor;
            hd_promoted_words = a.Gc.promoted_words -. b.Gc.promoted_words;
            hd_major_words = a.Gc.major_words -. b.Gc.major_words;
            hd_minor_collections = a.Gc.minor_collections - b.Gc.minor_collections;
            hd_major_collections = a.Gc.major_collections - b.Gc.major_collections;
            hd_instructions = instructions;
          }

  let run t = t.run

  let minor_words_per_instr t =
    match t.run with
    | Some r when r.hd_instructions > 0 -> Some (r.hd_minor_words /. float_of_int r.hd_instructions)
    | _ -> None
end

type t = {
  enabled : bool;
  metrics : Metrics.t;
  spans : Span.t;
  audit : Audit.t;
  mutable hostprof : Hostprof.t option;
  pending : float array;
      (* one element: hostprof bracket words the youngest open span's
         next charge must leave out (see {!hostprof_phase}) *)
}

let make ~enabled =
  {
    enabled;
    metrics = Metrics.registry enabled;
    spans = Span.create ();
    audit = Audit.create ();
    hostprof = None;
    pending = [| 0. |];
  }

let create () = make ~enabled:true
let disabled = make ~enabled:false

let on t = t.enabled
let metrics t = t.metrics
let spans t = t.spans
let audit t = t.audit

let snapshot t = Metrics.snapshot t.metrics

let set_hostprof t hp = if t.enabled then t.hostprof <- Some hp
let hostprof t = t.hostprof

(* Span helpers that carry the disabled check themselves: a disabled
   context hands out no handle, so an instrumented region costs one
   branch and an immediate [None]. With a Hostprof attached they also
   bracket the span stack with Gc.minor_words readings — see the
   Hostprof header comment for the self-attribution discipline. *)
let enter_span t ~name ?attrs ~cycle () =
  if not t.enabled then None
  else begin
    (match (t.hostprof, t.spans.Span.open_spans) with
    | Some _, parent :: _ ->
      let now = Gc.minor_words () in
      let w = parent.Span.sp_words in
      w.self_words <- w.self_words +. (now -. w.mark -. t.pending.(0));
      t.pending.(0) <- 0.;
      w.mark <- now
    | _ -> ());
    let sp = Span.enter t.spans ~name ?attrs ~cycle () in
    (match t.hostprof with None -> () | Some _ -> sp.Span.sp_words.mark <- Gc.minor_words ());
    Some sp
  end

let exit_span t handle ~cycle =
  match handle with
  | None -> ()
  | Some sp ->
    (match t.hostprof with
    | None -> ()
    | Some hp ->
      let w = sp.Span.sp_words in
      w.self_words <- w.self_words +. (Gc.minor_words () -. w.mark -. t.pending.(0));
      t.pending.(0) <- 0.;
      Hostprof.note hp ~phase:sp.Span.sp_name ~words:w.self_words);
    Span.exit t.spans sp ~cycle;
    (match t.hostprof with
    | None -> ()
    | Some _ -> (
      match t.spans.Span.open_spans with
      | parent :: _ -> parent.Span.sp_words.mark <- Gc.minor_words ()
      | [] -> ()))

(* Note a bracket's [words] and, when a span is open, leave them for
   its next charge to take out: the same self words as charging it up
   to the bracket and restarting its mark after it, without a boxed
   store. *)
let[@inline] close_bracket t hp phase words =
  Hostprof.note hp ~phase ~words;
  match t.spans.Span.open_spans with [] -> () | _ :: _ -> t.pending.(0) <- t.pending.(0) +. words

let hostprof_phase t ~phase f a b =
  match t.hostprof with
  | Some hp when t.enabled -> (
    let w0 = Gc.minor_words () in
    match f a b with
    | r ->
      close_bracket t hp phase (Gc.minor_words () -. w0);
      r
    | exception e ->
      close_bracket t hp phase (Gc.minor_words () -. w0);
      raise e)
  | _ -> f a b

let audit_emit t ~cycle ~isa ~pid kind =
  if t.enabled then ignore (Audit.record t.audit ~cycle ~isa ~pid kind)

(* A disabled context is its own child. An enabled one gets a fresh
   context, with a fresh hostprof when [t] has one: the child is
   handed to another domain, so it must share nothing with [t]. *)
let child t =
  if not t.enabled then t
  else begin
    let c = create () in
    if Option.is_some t.hostprof then c.hostprof <- Some (Hostprof.create ());
    c
  end

let merge ~into src =
  if into.enabled && src.enabled then begin
    Metrics.merge ~into:into.metrics (Metrics.snapshot src.metrics);
    Span.merge ~into:into.spans src.spans;
    Audit.merge ~into:into.audit src.audit;
    match (into.hostprof, src.hostprof) with
    | Some hp, Some src_hp -> Hostprof.merge ~into:hp src_hp
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Time-resolved telemetry: windowed delta snapshots keyed to the
   deterministic guest/fleet clock.

   A Timeline divides the clock into fixed-width windows and folds
   *deltas* into the window containing each sample's clock stamp. Two
   feeds exist: [sample], which diffs a source's cumulative
   Metrics.snapshot against the last snapshot seen for that source
   key (per-window counter increments and histogram deltas fall out),
   and [record], which adds caller-computed per-window counts
   directly (e.g. completions per wave).

   Determinism contract: the simulation loops call sample/record from
   their sequential sections (Fleet's wave loop after the shard fan-out,
   Cmp.step's accounting stage), in a fixed source order, at clock
   stamps that are themselves deterministic — so the full timeline,
   and every export of it, is byte-identical across fleet -j 1 /
   -j N. Attribution granularity is the sampling interval:
   work of a wave that straddles a window boundary lands in the window
   containing the wave-end stamp. *)
module Timeline = struct
  type window = {
    tw_index : int;
    tw_counters : (string * int) list;  (* sorted by name; positive deltas only *)
    tw_histograms : (string * Metrics.histogram_summary) list;  (* sorted; non-empty only *)
  }

  type acc = {
    wa_counters : (string, int) Hashtbl.t;
    wa_histograms : (string, Metrics.histogram_summary) Hashtbl.t;
  }

  type t = {
    tl_width : float;
    last : (string, Metrics.snapshot) Hashtbl.t;  (* per source key *)
    wins : (int, acc) Hashtbl.t;
  }

  let create ~window () =
    if not (Float.is_finite window) || window <= 0. then
      invalid_arg "Obs.Timeline.create: window must be a positive cycle count";
    { tl_width = window; last = Hashtbl.create 8; wins = Hashtbl.create 64 }

  let window_cycles t = t.tl_width

  let index_of t clock =
    let i = int_of_float (Float.floor (clock /. t.tl_width)) in
    if i < 0 then 0 else i

  let acc_of t i =
    match Hashtbl.find_opt t.wins i with
    | Some a -> a
    | None ->
      let a = { wa_counters = Hashtbl.create 16; wa_histograms = Hashtbl.create 8 } in
      Hashtbl.replace t.wins i a;
      a

  let add_counter a name v =
    if v > 0 then
      Hashtbl.replace a.wa_counters name
        ((match Hashtbl.find_opt a.wa_counters name with Some x -> x | None -> 0) + v)

  let add_histogram a name (d : Metrics.histogram_summary) =
    if d.Metrics.hs_count > 0 then
      Hashtbl.replace a.wa_histograms name
        (match Hashtbl.find_opt a.wa_histograms name with
        | None -> d
        | Some prev -> Metrics.combine_summaries prev d)

  let record t ~clock ~counters =
    let a = acc_of t (index_of t clock) in
    List.iter (fun (n, v) -> add_counter a n v) counters

  let sample t ~key ~clock (snap : Metrics.snapshot) =
    let base = Hashtbl.find_opt t.last key in
    Hashtbl.replace t.last key snap;
    let a = acc_of t (index_of t clock) in
    List.iter
      (fun (n, v) ->
        let prev = match base with None -> 0 | Some b -> Metrics.counter_value b n in
        add_counter a n (v - prev))
      snap.Metrics.snap_counters;
    List.iter
      (fun (n, (h : Metrics.histogram_summary)) ->
        let d =
          match Option.bind base (fun b -> Metrics.histogram_summary b n) with
          | None -> h
          | Some hb -> Metrics.delta ~base:hb h
        in
        add_histogram a n d)
      snap.Metrics.snap_histograms

  let windows t =
    Hashtbl.fold (fun i a acc -> (i, a) :: acc) t.wins []
    |> List.sort (fun (i, _) (j, _) -> compare i j)
    |> List.map (fun (i, a) ->
           {
             tw_index = i;
             tw_counters =
               List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.wa_counters []);
             tw_histograms =
               List.sort
                 (fun (x, _) (y, _) -> compare x y)
                 (Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.wa_histograms []);
           })

  let window_count t = Hashtbl.length t.wins

  let span t =
    Hashtbl.fold
      (fun i _ acc ->
        match acc with None -> Some (i, i) | Some (lo, hi) -> Some (min lo i, max hi i))
      t.wins None

  let counter_value w name =
    match List.assoc_opt name w.tw_counters with Some v -> v | None -> 0

  let histogram w name = List.assoc_opt name w.tw_histograms

  (* Fold [src]'s recorded windows into [into] (window widths must
     match). Only the accumulated windows merge; per-source last
     snapshots do not travel — merging is for folding finished
     sub-timelines, not for resuming sampling on the source. *)
  let merge ~into src =
    if into.tl_width <> src.tl_width then
      invalid_arg "Obs.Timeline.merge: window widths differ";
    List.iter
      (fun w ->
        let a = acc_of into w.tw_index in
        List.iter (fun (n, v) -> add_counter a n v) w.tw_counters;
        List.iter (fun (n, h) -> add_histogram a n h) w.tw_histograms)
      (windows src)
end

(* Service-level-objective tracking over a Timeline: a latency target
   plus an error budget (the fraction of requests allowed over
   target), evaluated per window with the standard burn-rate /
   budget-remaining / time-to-exhaustion arithmetic. Violations are
   estimated from the windowed histogram deltas via
   Metrics.count_above, so the whole report inherits the timeline's
   determinism. *)
module Slo = struct
  type objective = { slo_target : float; slo_budget : float }

  let objective ~target ~budget =
    if not (Float.is_finite target) || target <= 0. then
      invalid_arg "Obs.Slo.objective: target must be a positive cycle count";
    if not (Float.is_finite budget) || budget <= 0. || budget >= 1. then
      invalid_arg "Obs.Slo.objective: budget must be a violation fraction in (0, 1)";
    { slo_target = target; slo_budget = budget }

  type window_report = {
    sw_index : int;
    sw_requests : int;
    sw_violations : float;  (* estimated requests over target this window *)
    sw_burn : float;  (* (violations/requests)/budget; 1.0 = burning exactly at budget *)
    sw_cum_requests : int;
    sw_cum_violations : float;
    sw_budget_remaining : float;  (* budget*cum_requests - cum_violations *)
    sw_exhausted : bool;
    sw_tte_windows : float option;
        (* windows until exhaustion extrapolating this window's net burn *)
  }

  let evaluate obj ~latency tl =
    let cum_req = ref 0 and cum_vio = ref 0. in
    List.map
      (fun (w : Timeline.window) ->
        let requests, violations =
          match Timeline.histogram w latency with
          | None -> (0, 0.)
          | Some h -> (h.Metrics.hs_count, Metrics.count_above h obj.slo_target)
        in
        cum_req := !cum_req + requests;
        cum_vio := !cum_vio +. violations;
        let burn =
          if requests = 0 then 0.
          else violations /. float_of_int requests /. obj.slo_budget
        in
        let remaining = (obj.slo_budget *. float_of_int !cum_req) -. !cum_vio in
        let net = violations -. (obj.slo_budget *. float_of_int requests) in
        {
          sw_index = w.Timeline.tw_index;
          sw_requests = requests;
          sw_violations = violations;
          sw_burn = burn;
          sw_cum_requests = !cum_req;
          sw_cum_violations = !cum_vio;
          sw_budget_remaining = remaining;
          sw_exhausted = remaining < 0.;
          sw_tte_windows = (if net > 0. && remaining > 0. then Some (remaining /. net) else None);
        })
      (Timeline.windows tl)
end

(* ------------------------------------------------------------------ *)
(* Deterministic serializers. Each re-sorts its inputs by content
   before writing, so a file depends on the facts recorded, not on
   span ids or on the order spans, audit entries and merged child
   contexts arrived in. *)
module Export = struct
  module Json = Hipstr_util.Json

  (* --- track resolution for the Chrome trace ---

     A span lands on the CMP-core track named by its "core" attribute
     (pid 0, tid = core id); otherwise on the track of the process
     named by its "pid" attribute (pid = 1 + process pid, tid 0);
     otherwise it inherits its parent's track. One track per CMP core,
     one per process. *)
  let attr_int sp key = Option.bind (Span.attr sp key) int_of_string_opt

  let rec track_of tbl sp =
    match attr_int sp "core" with
    | Some c -> (0, c)
    | None -> (
      match attr_int sp "pid" with
      | Some p -> (1 + p, 0)
      | None -> (
        match Option.bind (Span.parent_id sp) (Hashtbl.find_opt tbl) with
        | Some parent -> track_of tbl parent
        | None -> (1, 0)))

  let span_table spans =
    let tbl = Hashtbl.create 256 in
    List.iter (fun sp -> Hashtbl.replace tbl (Span.id sp) sp) spans;
    tbl

  let args_of_attrs attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)

  let audit_fields (e : Audit.entry) =
    match e.au_kind with
    | Audit.Suspicious { target_src } -> [ ("target_src", Json.Str (Printf.sprintf "0x%x" target_src)) ]
    | Audit.Decision { target_src; migrate; forced } ->
      [
        ("target_src", Json.Str (Printf.sprintf "0x%x" target_src));
        ("migrate", Json.Bool migrate);
        ("forced", Json.Bool forced);
      ]
    | Audit.Migration { to_isa; forced; frames; words; cost_cycles; outcome } ->
      [
        ("to_isa", Json.Str to_isa);
        ("forced", Json.Bool forced);
        ("frames", Json.num_of_int frames);
        ("words", Json.num_of_int words);
        ("cost_cycles", Json.Num cost_cycles);
        ("outcome", Json.Str outcome);
      ]
    | Audit.Fault { reason } -> [ ("reason", Json.Str reason) ]
    | Audit.Sched_migrate { core; security } ->
      [ ("core", Json.num_of_int core); ("security", Json.Bool security) ]

  let audit_rank (e : Audit.entry) =
    match e.au_kind with
    | Audit.Sched_migrate _ -> 0
    | Audit.Suspicious _ -> 1
    | Audit.Decision _ -> 2
    | Audit.Migration _ -> 3
    | Audit.Fault _ -> 4

  (* Content ordering for audit entries: per-process timeline first
     (process cycle clocks are independent), then cycle, then the
     causal kind order at equal cycles, then rendered content. *)
  let canonical_audit entries =
    List.sort
      (fun (a : Audit.entry) (b : Audit.entry) ->
        compare
          (a.au_pid, a.au_cycle, audit_rank a, a.au_isa, Json.to_string (Json.Obj (audit_fields a)))
          (b.au_pid, b.au_cycle, audit_rank b, b.au_isa, Json.to_string (Json.Obj (audit_fields b))))
      entries

  let has_prefix ~prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

  (* Counter ("C") events from a timeline: one Perfetto counter track
     per series, one sample per window at the window's start stamp.
     Counters chart their per-window delta; histograms chart their
     per-window p99. The per-tenant namespaces are excluded to bound
     track cardinality. Deterministic because the timeline is. *)
  let timeline_counter_events tl =
    let width = Timeline.window_cycles tl in
    List.concat_map
      (fun (w : Timeline.window) ->
        let ts = float_of_int w.Timeline.tw_index *. width in
        let series =
          List.filter_map
            (fun (n, v) ->
              if has_prefix ~prefix:"fleet.tenant." n then None else Some (n, float_of_int v))
            w.Timeline.tw_counters
          @ List.filter_map
              (fun (n, h) ->
                if has_prefix ~prefix:"fleet.tenant." n then None
                else Some (n ^ ".p99", Metrics.p99 h))
              w.Timeline.tw_histograms
        in
        List.map
          (fun (name, v) ->
            Json.Obj
              [
                ("name", Json.Str name);
                ("ph", Json.Str "C");
                ("ts", Json.Num ts);
                ("pid", Json.num_of_int 0);
                ("args", Json.Obj [ ("value", Json.Num v) ]);
              ])
          series)
      (Timeline.windows tl)

  (* Chrome trace_event JSON, loadable in Perfetto / chrome://tracing.
     Complete ("X") events for spans, instant ("i") events for audit
     entries, metadata ("M") events naming the tracks, and — when a
     timeline is supplied — counter ("C") tracks of its per-window
     series. Timestamps are simulated cycles presented as
     microseconds. *)
  let trace_json ?timeline t =
    let spans = Span.canonical (Span.completed t.spans) in
    let tbl = span_table (Span.completed t.spans) in
    let entries = canonical_audit (Audit.entries t.audit) in
    (* track discovery: cores, then processes *)
    let cores = Hashtbl.create 8 and procs = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        match track_of tbl sp with
        | 0, tid ->
          if not (Hashtbl.mem cores tid) then
            Hashtbl.replace cores tid (match Span.attr sp "isa" with Some i -> i | None -> "?")
        | pid, _ ->
          if not (Hashtbl.mem procs pid) then
            Hashtbl.replace procs pid (match Span.attr sp "proc" with Some n -> Some n | None -> None))
      spans;
    List.iter
      (fun (e : Audit.entry) ->
        match e.au_kind with
        | Audit.Sched_migrate { core; _ } ->
          if not (Hashtbl.mem cores core) then Hashtbl.replace cores core e.au_isa
        | _ ->
          if not (Hashtbl.mem procs (1 + e.au_pid)) then Hashtbl.replace procs (1 + e.au_pid) None)
      entries;
    let sorted_bindings h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
    let metadata =
      (if Hashtbl.length cores = 0 then []
       else
         [
           Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.num_of_int 0);
               ("args", Json.Obj [ ("name", Json.Str "cmp cores") ]);
             ];
         ])
      @ List.map
          (fun (tid, isa) ->
            Json.Obj
              [
                ("name", Json.Str "thread_name");
                ("ph", Json.Str "M");
                ("pid", Json.num_of_int 0);
                ("tid", Json.num_of_int tid);
                ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "core %d (%s)" tid isa)) ]);
              ])
          (sorted_bindings cores)
      @ List.map
          (fun (pid, name) ->
            let label =
              match name with
              | Some n -> Printf.sprintf "process %d (%s)" (pid - 1) n
              | None -> Printf.sprintf "process %d" (pid - 1)
            in
            Json.Obj
              [
                ("name", Json.Str "process_name");
                ("ph", Json.Str "M");
                ("pid", Json.num_of_int pid);
                ("args", Json.Obj [ ("name", Json.Str label) ]);
              ])
          (sorted_bindings procs)
    in
    let span_events =
      List.map
        (fun sp ->
          let pid, tid = track_of tbl sp in
          ( (pid, tid, Span.begin_cycle sp, Span.duration sp, Span.name sp),
            Json.Obj
              [
                ("name", Json.Str (Span.name sp));
                ("ph", Json.Str "X");
                ("ts", Json.Num (Span.begin_cycle sp));
                ("dur", Json.Num (Span.duration sp));
                ("pid", Json.num_of_int pid);
                ("tid", Json.num_of_int tid);
                ("args", args_of_attrs (Span.attrs sp));
              ] ))
        spans
    in
    let instant_events =
      List.map
        (fun (e : Audit.entry) ->
          let pid, tid =
            match e.au_kind with Audit.Sched_migrate { core; _ } -> (0, core) | _ -> (1 + e.au_pid, 0)
          in
          ( (pid, tid, e.au_cycle, 0., Audit.kind_label e.au_kind),
            Json.Obj
              [
                ("name", Json.Str (Audit.kind_label e.au_kind));
                ("ph", Json.Str "i");
                ("s", Json.Str "t");
                ("ts", Json.Num e.au_cycle);
                ("pid", Json.num_of_int pid);
                ("tid", Json.num_of_int tid);
                ( "args",
                  Json.Obj
                    (("isa", Json.Str e.au_isa)
                    :: ("proc_pid", Json.num_of_int e.au_pid)
                    :: audit_fields e) );
              ] ))
        entries
    in
    let timed =
      List.sort
        (fun (ka, va) (kb, vb) -> compare (ka, Json.to_string va) (kb, Json.to_string vb))
        (span_events @ instant_events)
    in
    let counters = match timeline with None -> [] | Some tl -> timeline_counter_events tl in
    Json.to_string
      (Json.Obj
         [
           ("traceEvents", Json.List (metadata @ List.map snd timed @ counters));
           ("displayTimeUnit", Json.Str "ns");
         ])
    ^ "\n"

  (* Folded-stack profile: one "phase;phase;...;leaf cycles" line per
     distinct span path, self time only (children subtracted), ready
     for flamegraph.pl / speedscope / inferno. Translate spans grow a
     leaf frame for the function their translation unit belongs to, so
     per-function translation cost is visible. *)
  let folded t =
    let spans = Span.canonical (Span.completed t.spans) in
    let tbl = span_table spans in
    let child_sum = Hashtbl.create 256 in
    List.iter
      (fun sp ->
        match Span.parent_id sp with
        | None -> ()
        | Some p ->
          Hashtbl.replace child_sum p
            ((match Hashtbl.find_opt child_sum p with Some s -> s | None -> 0.)
            +. Span.duration sp))
      spans;
    let rec path sp =
      let base =
        match Option.bind (Span.parent_id sp) (Hashtbl.find_opt tbl) with
        | Some parent -> path parent ^ ";" ^ Span.name sp
        | None -> Span.name sp
      in
      base
    in
    let totals = Hashtbl.create 64 in
    List.iter
      (fun sp ->
        let children =
          match Hashtbl.find_opt child_sum (Span.id sp) with Some s -> s | None -> 0.
        in
        let self = Float.max 0. (Span.duration sp -. children) in
        let p =
          path sp ^ (match Span.attr sp "func" with Some f -> ";" ^ f | None -> "")
        in
        Hashtbl.replace totals p
          ((match Hashtbl.find_opt totals p with Some s -> s | None -> 0.) +. self))
      spans;
    let lines =
      List.sort compare
        (Hashtbl.fold
           (fun p v acc ->
             let rounded = Float.round v in
             if rounded > 0. then Printf.sprintf "%s %.0f" p rounded :: acc else acc)
           totals [])
    in
    String.concat "\n" lines ^ if lines = [] then "" else "\n"

  let span_rollup t =
    let spans = Span.canonical (Span.completed t.spans) in
    let names = List.sort_uniq compare (List.map Span.name spans) in
    List.map
      (fun n ->
        let mine = List.filter (fun sp -> Span.name sp = n) spans in
        ( n,
          List.length mine,
          List.fold_left (fun acc sp -> acc +. Span.duration sp) 0. mine ))
      names

  let metrics_json t =
    let snap = Metrics.snapshot t.metrics in
    let counters =
      Json.Obj (List.map (fun (n, v) -> (n, Json.num_of_int v)) snap.Metrics.snap_counters)
    in
    let histograms =
      Json.Obj
        (List.map
           (fun (n, (h : Metrics.histogram_summary)) ->
             ( n,
               Json.Obj
                 [
                   ("count", Json.num_of_int h.hs_count);
                   ("sum", Json.Num h.hs_sum);
                   ("min", Json.Num h.hs_min);
                   ("max", Json.Num h.hs_max);
                   ("mean", Json.Num h.hs_mean);
                   ("p50", Json.Num (Metrics.p50 h));
                   ("p95", Json.Num (Metrics.p95 h));
                   ("p99", Json.Num (Metrics.p99 h));
                   ("buckets", Json.List (Array.to_list (Array.map Json.num_of_int h.hs_buckets)));
                 ] ))
           snap.Metrics.snap_histograms)
    in
    let spans =
      Json.Obj
        (List.map
           (fun (n, count, cycles) ->
             (n, Json.Obj [ ("count", Json.num_of_int count); ("cycles", Json.Num cycles) ]))
           (span_rollup t))
    in
    let audit_counts =
      let es = Audit.entries t.audit in
      let count label = List.length (List.filter (fun e -> Audit.kind_label e.Audit.au_kind = label) es) in
      Json.Obj
        [
          ("entries", Json.num_of_int (List.length es));
          ("suspicious", Json.num_of_int (count "suspicious"));
          ("decisions", Json.num_of_int (count "decision"));
          ("migrations", Json.num_of_int (count "migration"));
          ("faults", Json.num_of_int (count "fault"));
          ("sched_migrations", Json.num_of_int (count "sched-migrate"));
        ]
    in
    Json.to_string_pretty
      (Json.Obj
         [
           ("counters", counters);
           ("histograms", histograms);
           ("spans", spans);
           ("audit", audit_counts);
         ])
    ^ "\n"

  (* Prometheus text exposition. Metric names are sanitized to
     [a-zA-Z0-9_] under a hipstr_ prefix; histograms use the standard
     cumulative-bucket convention with log2 upper bounds. *)
  let metrics_prom t =
    let b = Buffer.create 4096 in
    let sane name =
      "hipstr_"
      ^ String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') name
    in
    let snap = Metrics.snapshot t.metrics in
    List.iter
      (fun (n, v) ->
        let n = sane n in
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
      snap.Metrics.snap_counters;
    List.iter
      (fun (n, (h : Metrics.histogram_summary)) ->
        let n = sane n in
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            let le =
              if i = Array.length h.hs_buckets - 1 then "+Inf"
              else Printf.sprintf "%.0f" (Float.pow 2. (float_of_int i))
            in
            Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n le !cum))
          h.hs_buckets;
        Buffer.add_string b (Printf.sprintf "%s_sum %.17g\n" n h.hs_sum);
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.hs_count);
        (* summary-style quantile estimates alongside the buckets, so
           a scrape gets the tail without server-side interpolation *)
        List.iter
          (fun (q, v) -> Buffer.add_string b (Printf.sprintf "%s_q{quantile=\"%s\"} %.17g\n" n q v))
          [ ("0.5", Metrics.p50 h); ("0.95", Metrics.p95 h); ("0.99", Metrics.p99 h) ])
      snap.Metrics.snap_histograms;
    (match span_rollup t with
    | [] -> ()
    | rollup ->
      Buffer.add_string b "# TYPE hipstr_span_cycles counter\n";
      List.iter
        (fun (n, _, cycles) ->
          Buffer.add_string b (Printf.sprintf "hipstr_span_cycles{phase=\"%s\"} %.17g\n" n cycles))
        rollup;
      Buffer.add_string b "# TYPE hipstr_span_count counter\n";
      List.iter
        (fun (n, count, _) ->
          Buffer.add_string b (Printf.sprintf "hipstr_span_count{phase=\"%s\"} %d\n" n count))
        rollup);
    (if Audit.length t.audit > 0 then begin
       Buffer.add_string b "# TYPE hipstr_audit_entries counter\n";
       List.iter
         (fun label ->
           let n = Audit.count t.audit (fun e -> Audit.kind_label e.au_kind = label) in
           if n > 0 then
             Buffer.add_string b (Printf.sprintf "hipstr_audit_entries{kind=\"%s\"} %d\n" label n))
         [ "suspicious"; "decision"; "migration"; "fault"; "sched-migrate" ]
     end);
    Buffer.contents b

  (* One JSON object per line, canonically ordered and re-sequenced:
     the machine-readable security audit. *)
  let audit_jsonl t =
    let entries = canonical_audit (Audit.entries t.audit) in
    let b = Buffer.create 1024 in
    List.iteri
      (fun i (e : Audit.entry) ->
        Buffer.add_string b
          (Json.to_string
             (Json.Obj
                ([
                   ("seq", Json.num_of_int i);
                   ("pid", Json.num_of_int e.au_pid);
                   ("cycle", Json.Num e.au_cycle);
                   ("isa", Json.Str e.au_isa);
                   ("kind", Json.Str (Audit.kind_label e.au_kind));
                 ]
                @ audit_fields e)));
        Buffer.add_char b '\n')
      entries;
    Buffer.contents b

  (* --- timeline / SLO / hostprof ----------------------------------- *)

  let summary_json (h : Metrics.histogram_summary) =
    Json.Obj
      [
        ("count", Json.num_of_int h.hs_count);
        ("sum", Json.Num h.hs_sum);
        ("min", Json.Num h.hs_min);
        ("max", Json.Num h.hs_max);
        ("mean", Json.Num h.hs_mean);
        ("p50", Json.Num (Metrics.p50 h));
        ("p95", Json.Num (Metrics.p95 h));
        ("p99", Json.Num (Metrics.p99 h));
      ]

  let hostprof_value hp =
    let run =
      match Hostprof.run hp with
      | None -> Json.Null
      | Some r ->
        Json.Obj
          [
            ("minor_words", Json.Num r.Hostprof.hd_minor_words);
            ("promoted_words", Json.Num r.Hostprof.hd_promoted_words);
            ("major_words", Json.Num r.Hostprof.hd_major_words);
            ("minor_collections", Json.num_of_int r.Hostprof.hd_minor_collections);
            ("major_collections", Json.num_of_int r.Hostprof.hd_major_collections);
            ("instructions", Json.num_of_int r.Hostprof.hd_instructions);
            ( "minor_words_per_instr",
              match Hostprof.minor_words_per_instr hp with
              | Some x -> Json.Num x
              | None -> Json.Null );
          ]
    in
    Json.Obj
      [
        ("deterministic", Json.Bool false);
        ( "note",
          Json.Str
            "host-process Gc deltas: varies across OCaml versions and domain interleavings; \
             excluded from the -j1/-jN byte-identity contract" );
        ("run", run);
        ( "phases",
          Json.Obj
            (List.map
               (fun (n, spans, words) ->
                 ( n,
                   Json.Obj
                     [ ("spans", Json.num_of_int spans); ("minor_words", Json.Num words) ] ))
               (Hostprof.phases hp)) );
      ]

  let hostprof_json hp = Json.to_string_pretty (hostprof_value hp) ^ "\n"

  (* The timeline file: schema hipstr-timeline/1. [windows] (and the
     optional [slo] section) are deterministic; the optional
     [hostprof] section is explicitly marked non-deterministic and
     must not be requested on runs whose exports are diffed for byte
     identity. *)
  let timeline_json ?slo ?hostprof (tl : Timeline.t) =
    let width = Timeline.window_cycles tl in
    let win_json (w : Timeline.window) =
      Json.Obj
        [
          ("index", Json.num_of_int w.Timeline.tw_index);
          ("start", Json.Num (float_of_int w.Timeline.tw_index *. width));
          ("stop", Json.Num (float_of_int (w.Timeline.tw_index + 1) *. width));
          ( "counters",
            Json.Obj (List.map (fun (n, v) -> (n, Json.num_of_int v)) w.Timeline.tw_counters) );
          ( "histograms",
            Json.Obj (List.map (fun (n, h) -> (n, summary_json h)) w.Timeline.tw_histograms) );
        ]
    in
    let slo_part =
      match slo with
      | None -> []
      | Some (obj, reports) ->
        [
          ( "slo",
            Json.Obj
              [
                ("target_cycles", Json.Num obj.Slo.slo_target);
                ("budget", Json.Num obj.Slo.slo_budget);
                ( "windows",
                  Json.List
                    (List.map
                       (fun (r : Slo.window_report) ->
                         Json.Obj
                           [
                             ("index", Json.num_of_int r.sw_index);
                             ("requests", Json.num_of_int r.sw_requests);
                             ("violations", Json.Num r.sw_violations);
                             ("burn", Json.Num r.sw_burn);
                             ("budget_remaining", Json.Num r.sw_budget_remaining);
                             ("exhausted", Json.Bool r.sw_exhausted);
                             ( "tte_windows",
                               match r.sw_tte_windows with
                               | Some x -> Json.Num x
                               | None -> Json.Null );
                           ])
                       reports) );
              ] );
        ]
    in
    let host_part =
      match hostprof with None -> [] | Some hp -> [ ("hostprof", hostprof_value hp) ]
    in
    Json.to_string_pretty
      (Json.Obj
         ([
            ("schema", Json.Str "hipstr-timeline/1");
            ("window_cycles", Json.Num width);
            ("windows", Json.List (List.map win_json (Timeline.windows tl)));
          ]
         @ slo_part @ host_part))
    ^ "\n"

  (* Long-format CSV of the same deterministic windows: one row per
     (window, series, stat). Counters carry stat "delta"; histograms
     count/sum/p50/p95/p99. *)
  let timeline_csv (tl : Timeline.t) =
    let width = Timeline.window_cycles tl in
    let b = Buffer.create 4096 in
    Buffer.add_string b "window,start,stop,series,stat,value\n";
    List.iter
      (fun (w : Timeline.window) ->
        let row series stat value =
          Buffer.add_string b
            (Printf.sprintf "%d,%.17g,%.17g,%s,%s,%s\n" w.Timeline.tw_index
               (float_of_int w.Timeline.tw_index *. width)
               (float_of_int (w.Timeline.tw_index + 1) *. width)
               series stat value)
        in
        List.iter (fun (n, v) -> row n "delta" (string_of_int v)) w.Timeline.tw_counters;
        List.iter
          (fun (n, (h : Metrics.histogram_summary)) ->
            row n "count" (string_of_int h.hs_count);
            row n "sum" (Printf.sprintf "%.17g" h.hs_sum);
            row n "p50" (Printf.sprintf "%.17g" (Metrics.p50 h));
            row n "p95" (Printf.sprintf "%.17g" (Metrics.p95 h));
            row n "p99" (Printf.sprintf "%.17g" (Metrics.p99 h)))
          w.Timeline.tw_histograms)
      (Timeline.windows tl);
    Buffer.contents b
end
