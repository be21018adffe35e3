(* In-memory span recorder for the traced run.

   Each span brackets one call from the benchmark into a layer's
   public function: name, monotonic start/end in ns, the enclosing
   span, the job it served, and the GC word deltas around the call
   ([Gc.minor_words], which counts the live minor heap, where
   [Gc.quick_stat] only moves at a minor collection; major words from
   [Gc.quick_stat]). Spans stay in memory until [write] dumps them at
   exit, so recording costs two clock reads and two GC samples. *)

type span = {
  id : int;
  name : string;
  phase : string;  (** "setup", "traced" or "probe" *)
  job : int;
  parent : int;  (** enclosing span id, -1 for a root *)
  start_ns : int64;
  end_ns : int64;
  minor_words : float;
  major_words : float;
}

type t = {
  mutable spans : span list;  (** completed, newest first *)
  mutable open_ids : int list;
  mutable next_id : int;
  mutable cur_phase : string;
  mutable cur_job : int;
}

let create () = { spans = []; open_ids = []; next_id = 0; cur_phase = "setup"; cur_job = -1 }
let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9
let set_phase t p = t.cur_phase <- p
let set_job t j = t.cur_job <- j

(* [with_span None] is the untraced path: a direct call. *)
let with_span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
    t.open_ids <- id :: t.open_ids;
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).major_words in
    let start_ns = now_ns () in
    let close () =
      let end_ns = now_ns () in
      let minor1 = Gc.minor_words () and major1 = (Gc.quick_stat ()).major_words in
      t.open_ids <- List.tl t.open_ids;
      t.spans <-
        {
          id;
          name;
          phase = t.cur_phase;
          job = t.cur_job;
          parent;
          start_ns;
          end_ns;
          minor_words = minor1 -. minor0;
          major_words = major1 -. major0;
        }
        :: t.spans
    in
    Fun.protect ~finally:close f

let spans t = List.rev t.spans
let duration s = seconds_between s.start_ns s.end_ns

(* Self time: a span's duration minus its direct children's. Children
   nest strictly inside their parent (one domain records), so the
   subtraction never double counts. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let write t path =
  let origin = List.fold_left (fun m s -> min m s.start_ns) Int64.max_int t.spans in
  let rel ns = Hipstr_util.Json.num_of_int (Int64.to_int (Int64.sub ns origin)) in
  let doc =
    Hipstr_util.Json.List
      (List.map
         (fun s ->
           Hipstr_util.Json.(
             Obj
               [
                 ("id", num_of_int s.id);
                 ("name", Str s.name);
                 ("phase", Str s.phase);
                 ("job", num_of_int s.job);
                 ("parent", num_of_int s.parent);
                 ("start_ns", rel s.start_ns);
                 ("end_ns", rel s.end_ns);
                 ("minor_words", Num s.minor_words);
                 ("major_words", Num s.major_words);
               ]))
         (spans t))
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Hipstr_util.Json.to_string doc);
      Out_channel.output_char oc '\n')
