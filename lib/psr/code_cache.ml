module Obs = Hipstr_obs.Obs

type policy = Flush | Fifo | Clock

let policy_name = function Flush -> "flush" | Fifo -> "fifo" | Clock -> "clock"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "flush" -> Some Flush
  | "fifo" -> Some Fifo
  | "clock" | "second-chance" -> Some Clock
  | _ -> None

type block = {
  cb_src : int;
  cb_cache : int;
  cb_size : int;
  cb_func : string;
  cb_src_spans : (int * int) list;
}

module Addr_map = Map.Make (Int)

type t = {
  cc_base : int;
  cc_capacity : int;
  cc_policy : policy;
  mutable cursor : int;
  by_src : (int, int) Hashtbl.t;
  mutable by_addr : block Addr_map.t;
  referenced : (int, unit) Hashtbl.t;
  mutable nflushes : int;
  mutable nevictions : int;
  cc_obs : Obs.t;
  cc_allocs : Obs.Metrics.counter;
  cc_flushes : Obs.Metrics.counter;
  cc_evictions : Obs.Metrics.counter;
  cc_block_bytes : Obs.Metrics.histogram;
}

let create ?(obs = Obs.disabled) ?(isa = "any") ?(policy = Flush) ~base ~capacity () =
  let m = Obs.metrics obs in
  let name n = "code_cache." ^ isa ^ "." ^ n in
  {
    cc_base = base;
    cc_capacity = capacity;
    cc_policy = policy;
    cursor = base;
    (* both reset on every flush, and [Hashtbl.reset] costs the
       initial bucket count: start small and grow on demand *)
    by_src = Hashtbl.create 16;
    by_addr = Addr_map.empty;
    referenced = Hashtbl.create 16;
    nflushes = 0;
    nevictions = 0;
    cc_obs = obs;
    cc_allocs = Obs.Metrics.counter m (name "allocs");
    cc_flushes = Obs.Metrics.counter m (name "flushes");
    cc_evictions = Obs.Metrics.counter m (name "evictions");
    cc_block_bytes = Obs.Metrics.histogram m (name "block_bytes");
  }

let lookup t src =
  match Hashtbl.find_opt t.by_src src with
  | Some addr ->
      if t.cc_policy = Clock then Hashtbl.replace t.referenced addr ();
      Some addr
  | None -> None

let align_up a n = (n + a - 1) / a * a
let next_addr t ~align = align_up align t.cursor
let has_room t ~align ~size = next_addr t ~align + size <= t.cc_base + t.cc_capacity

(* Live blocks intersecting [lo, hi), ascending by cache address. At
   most one block can start strictly below [lo] and still reach into
   the window, since blocks never overlap each other. *)
let overlapping t ~lo ~hi =
  let tail =
    Addr_map.to_seq_from lo t.by_addr
    |> Seq.take_while (fun (a, _) -> a < hi)
    |> Seq.map snd |> List.of_seq
  in
  match Addr_map.find_last_opt (fun a -> a < lo) t.by_addr with
  | Some (_, b) when b.cb_cache + b.cb_size > lo -> b :: tail
  | _ -> tail

let evict_block t b =
  t.by_addr <- Addr_map.remove b.cb_cache t.by_addr;
  Hashtbl.remove t.by_src b.cb_src;
  Hashtbl.remove t.referenced b.cb_cache;
  t.nevictions <- t.nevictions + 1;
  if Obs.on t.cc_obs then Obs.Metrics.incr t.cc_evictions

let alloc t ?(align = 1) ~src ~func ~size ~src_spans () =
  if size < 0 then invalid_arg "code_cache: negative size";
  let limit = t.cc_base + t.cc_capacity in
  let evicted = ref [] in
  let start =
    match t.cc_policy with
    | Flush ->
        let start = align_up align t.cursor in
        if start + size > limit then invalid_arg "code_cache: full";
        start
    | Fifo | Clock ->
        if align_up align t.cc_base + size > limit then
          invalid_arg "code_cache: unit exceeds capacity";
        (* Circular claim: march the write pointer forward, wrapping to
           base when the tail is too short. Under Clock, a referenced
           victim gets a second chance — its bit is cleared and the
           claim skips past it — bounded by the number of set bits so
           the walk always terminates. *)
        let skips = ref (Hashtbl.length t.referenced) in
        let rec claim cursor wraps =
          let start = align_up align cursor in
          if start + size > limit then
            if wraps >= 2 then invalid_arg "code_cache: claim failed"
            else claim t.cc_base (wraps + 1)
          else
            let victims = overlapping t ~lo:start ~hi:(start + size) in
            match
              if t.cc_policy = Clock && !skips > 0 then
                List.find_opt (fun b -> Hashtbl.mem t.referenced b.cb_cache) victims
              else None
            with
            | Some b ->
                Hashtbl.remove t.referenced b.cb_cache;
                decr skips;
                claim (b.cb_cache + b.cb_size) wraps
            | None ->
                List.iter (evict_block t) victims;
                evicted := victims;
                start
        in
        claim t.cursor 0
  in
  (* Re-allocating a live src replaces it: drop the stale block so
     [blocks] and per-block accounting never see duplicates. The old
     block may already be gone if the claim just evicted it. *)
  (match Hashtbl.find_opt t.by_src src with
  | Some old_addr -> (
      match Addr_map.find_opt old_addr t.by_addr with
      | Some old_b ->
          t.by_addr <- Addr_map.remove old_addr t.by_addr;
          Hashtbl.remove t.referenced old_addr;
          evicted := !evicted @ [ old_b ]
      | None -> ())
  | None -> ());
  if Obs.on t.cc_obs then begin
    Obs.Metrics.incr t.cc_allocs;
    Obs.Metrics.observe t.cc_block_bytes (float_of_int size)
  end;
  t.cursor <- start + size;
  Hashtbl.replace t.by_src src start;
  t.by_addr <-
    Addr_map.add start
      { cb_src = src; cb_cache = start; cb_size = size; cb_func = func; cb_src_spans = src_spans }
      t.by_addr;
  (start, !evicted)

let flush t =
  if Obs.on t.cc_obs then Obs.Metrics.incr t.cc_flushes;
  t.cursor <- t.cc_base;
  Hashtbl.reset t.by_src;
  Hashtbl.reset t.referenced;
  t.by_addr <- Addr_map.empty;
  t.nflushes <- t.nflushes + 1

let blocks t = Addr_map.fold (fun _ b acc -> b :: acc) t.by_addr [] |> List.rev
let used_bytes t = t.cursor - t.cc_base
let flushes t = t.nflushes
let evictions t = t.nevictions
let policy t = t.cc_policy

(* --- snapshot ------------------------------------------------------ *)
(* The allocator state travels exactly — cursor, live blocks, Clock
   reference bits and the flush/eviction counters — but not the
   translated bytes themselves: the VM re-materializes those from the
   relocation maps via the translator. [by_src] is derived (one entry
   per live block), so it is rebuilt rather than shipped. Blocks
   serialize in ascending cache-address order (the [Addr_map] fold
   order), keeping image bytes deterministic. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let policy_codec = C.enum [| Flush; Fifo; Clock |]

let blocks_codec =
  C.list
    (C.conv
       (fun ((cb_src, cb_cache, cb_size), (cb_func, cb_src_spans)) ->
         { cb_src; cb_cache; cb_size; cb_func; cb_src_spans })
       (fun b -> ((b.cb_src, b.cb_cache, b.cb_size), (b.cb_func, b.cb_src_spans)))
       (C.pair (C.triple C.int C.int C.nat) (C.pair C.str (C.list (C.pair C.int C.int)))))

let ints = C.list C.int

let rec each_adjacent f = function
  | a :: (b :: _ as rest) ->
      f a b;
      each_adjacent f rest
  | _ -> ()

(* The next [alloc] trusts the cursor and [by_addr] blindly: a cursor
   outside the region would place a unit over other guest memory, and
   overlapping or same-source blocks would leave two live translations
   claiming one range or one source. Bump allocation (Flush) also
   never leaves a block past the cursor. *)
let sync io t =
  let io = Wire.section io "CCACHE" in
  let limit = t.cc_base + t.cc_capacity in
  t.cursor <- Wire.field io "cursor" (C.int_in ~lo:t.cc_base ~hi:limit) t.cursor;
  Wire.derived io "blocks" blocks_codec
    (fun () -> blocks t)
    (fun bs ->
      List.iter
        (fun b ->
          if b.cb_cache < t.cc_base || b.cb_cache + b.cb_size > limit then
            Wire.corrupt "code-cache block [0x%x, +%d) outside this cache's region" b.cb_cache
              b.cb_size;
          if t.cc_policy = Flush && b.cb_cache + b.cb_size > t.cursor then
            Wire.corrupt "code-cache block [0x%x, +%d) lies past the cursor 0x%x" b.cb_cache
              b.cb_size t.cursor)
        bs;
      each_adjacent
        (fun a b ->
          if b.cb_cache = a.cb_cache || b.cb_cache < a.cb_cache + a.cb_size then
            Wire.corrupt "code-cache blocks [0x%x, +%d) and [0x%x, +%d) overlap" a.cb_cache
              a.cb_size b.cb_cache b.cb_size)
        (List.sort (fun a b -> compare a.cb_cache b.cb_cache) bs);
      each_adjacent
        (fun a b -> if a = b then Wire.corrupt "two code-cache blocks translate source 0x%x" a)
        (List.sort compare (List.map (fun b -> b.cb_src) bs));
      Hashtbl.reset t.by_src;
      t.by_addr <- Addr_map.empty;
      List.iter
        (fun b ->
          Hashtbl.replace t.by_src b.cb_src b.cb_cache;
          t.by_addr <- Addr_map.add b.cb_cache b t.by_addr)
        bs);
  Wire.derived io "referenced" ints
    (fun () -> List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) t.referenced []))
    (fun refs ->
      Hashtbl.reset t.referenced;
      List.iter (fun a -> Hashtbl.replace t.referenced a ()) refs);
  t.nflushes <- Wire.field io "nflushes" C.int t.nflushes;
  t.nevictions <- Wire.field io "nevictions" C.int t.nevictions

let restore t r = sync (Wire.reading r) t
