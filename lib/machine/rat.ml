(* One RAT entry. Mutable so the hot paths — [insert] on every
   [Callrat] retirement, [find_translated] on every [Retrat] — update
   translated address and LRU stamp in place instead of allocating a
   fresh tuple/ref pair (and a hashtable cons) per call. A record is
   only allocated the first time a source return address is seen. *)
type entry = { mutable e_tr : int; mutable e_stamp : int }

module Tbl = Layout.Int_tbl

type t = {
  capacity : int;
  table : entry Tbl.t; (* src -> translated, last-use stamp *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

(* [create] allocates and then resets: no entries, counts 0. *)
let reset t =
  Tbl.reset t.table;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0

(* The table starts small and grows on demand: a code-cache flush
   resets it ([clear]), and [Tbl.reset] costs the initial bucket
   count every time. *)
let create ~capacity =
  let t = { capacity; table = Tbl.create 16; clock = 0; hits = 0; misses = 0 } in
  reset t;
  t

let capacity t = t.capacity

let evict_lru t =
  let victim_src = ref (-1) and victim_stamp = ref max_int in
  Tbl.iter
    (fun src e ->
      if e.e_stamp < !victim_stamp then begin
        victim_src := src;
        victim_stamp := e.e_stamp
      end)
    t.table;
  if !victim_src >= 0 then Tbl.remove t.table !victim_src

let insert t ~src ~translated =
  t.clock <- t.clock + 1;
  match Tbl.find t.table src with
  | e ->
    e.e_tr <- translated;
    e.e_stamp <- t.clock
  | exception Not_found ->
    if Tbl.length t.table >= t.capacity then evict_lru t;
    Tbl.add t.table src { e_tr = translated; e_stamp = t.clock }

(* The lookup of every [Retrat]: [-1] for a miss instead of an option
   (translated addresses are non-negative). [Tbl.find]'s
   [Not_found] is a constant exception, so neither arm allocates. *)
let find_translated t src =
  t.clock <- t.clock + 1;
  match Tbl.find t.table src with
  | e ->
    e.e_stamp <- t.clock;
    t.hits <- t.hits + 1;
    e.e_tr
  | exception Not_found ->
    t.misses <- t.misses + 1;
    -1

let hits t = t.hits
let misses t = t.misses

let clear t = Tbl.reset t.table

let remove_in_range t ~lo ~hi =
  let stale =
    Tbl.fold
      (fun src e acc -> if e.e_tr >= lo && e.e_tr < hi then src :: acc else acc)
      t.table []
  in
  List.iter (Tbl.remove t.table) stale

(* --- snapshot ------------------------------------------------------ *)
(* The RAT is model-visible (a miss traps to the VM), so entries and
   their LRU stamps are carried exactly. Stamps are unique (the clock
   is monotone), so [evict_lru]'s iteration-order-independent victim
   choice is preserved whatever the hashtable's internal layout after
   the rebuild. Entries are written sorted by source address, which
   is unique per entry, to keep the image bytes deterministic. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let entries = C.list (C.triple C.int C.int C.int)

let sync io t =
  let io = Wire.section io "RAT" in
  Wire.derived io "entries" entries
    (fun () ->
      List.sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (Tbl.fold (fun src e acc -> (src, e.e_tr, e.e_stamp) :: acc) t.table []))
    (fun es ->
      if List.length es > t.capacity then
        Wire.corrupt "RAT image holds %d entries but capacity is %d" (List.length es) t.capacity;
      Tbl.reset t.table;
      List.iter
        (fun (src, tr, stamp) -> Tbl.replace t.table src { e_tr = tr; e_stamp = stamp })
        es);
  t.clock <- Wire.field io "clock" C.int t.clock;
  t.hits <- Wire.field io "hits" C.int t.hits;
  t.misses <- Wire.field io "misses" C.int t.misses
