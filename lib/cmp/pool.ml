(* A deterministic work-queue over OCaml 5 domains.

   The contract that makes `-j N` bit-identical to serial: results
   land in an array indexed by task, every task draws randomness only
   from an Rng derived from (seed, task index), and observability
   goes to a per-task child context folded back in task order after
   the call. Which domain ran a task, and when, can then never
   influence anything the caller sees.

   Work runs on a crew: [jobs - 1] helper domains spawned once for a
   scope and joined when it ends, serving any number of calls in
   between. A call publishes one job; the caller and every helper
   claim its task indices from the job's atomic counter until none
   are left, and the call returns once every task has finished. The
   crew is scoped, never process-wide: an idle helper still takes part
   in every stop-the-world minor collection, so a domain parked
   outside parallel work slows the serial code around it. *)

module Rng = Hipstr_util.Rng
module Obs = Hipstr_obs.Obs

let recommended_jobs () = Domain.recommended_domain_count ()

(* One call's tasks. [work] never raises: {!crew_mapi} captures every
   task's exception into its result slot. *)
type job = { n : int; work : int -> unit; next : int Atomic.t; finished : int Atomic.t }

type crew = {
  mu : Mutex.t;
  wake : Condition.t;  (* helpers: a new job was published, or stop *)
  drained : Condition.t;  (* caller: the last task of the job finished *)
  mutable job : job option;
  mutable epoch : int;  (* bumped once per published job *)
  mutable stop : bool;
  mutable helpers : unit Domain.t list;
  calling : bool Atomic.t;  (* a call is in flight: refuse re-entry *)
}

let claim c job =
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      job.work i;
      if Atomic.fetch_and_add job.finished 1 + 1 = job.n then begin
        Mutex.lock c.mu;
        Condition.broadcast c.drained;
        Mutex.unlock c.mu
      end;
      loop ()
    end
  in
  loop ()

(* A helper sleeps until a job newer than the last one it saw is
   published, claims from it, and goes back to sleep. It may wake
   after its job's tasks are all claimed (or even finished): its
   claims then fail on the exhausted counter and cost nothing. *)
let helper c () =
  let rec serve seen =
    Mutex.lock c.mu;
    while (not c.stop) && c.epoch = seen do
      Condition.wait c.wake c.mu
    done;
    if c.stop then Mutex.unlock c.mu
    else begin
      let seen = c.epoch and job = c.job in
      Mutex.unlock c.mu;
      Option.iter (claim c) job;
      serve seen
    end
  in
  serve 0

let with_crew ~jobs body =
  let c =
    {
      mu = Mutex.create ();
      wake = Condition.create ();
      drained = Condition.create ();
      job = None;
      epoch = 0;
      stop = false;
      helpers = [];
      calling = Atomic.make false;
    }
  in
  let dismiss () =
    Mutex.lock c.mu;
    c.stop <- true;
    c.job <- None;
    Condition.broadcast c.wake;
    Mutex.unlock c.mu;
    List.iter Domain.join c.helpers
  in
  Fun.protect ~finally:dismiss (fun () ->
      for _ = 2 to jobs do
        c.helpers <- Domain.spawn (helper c) :: c.helpers
      done;
      body c)

(* Run [work 0 .. work (n-1)], each exactly once, on the caller and
   the crew's helpers. A single task, or a crew without helpers, runs
   in the caller without waking anyone. *)
let drive c ~n work =
  if not (Atomic.compare_and_set c.calling false true) then
    invalid_arg "Pool: a crew serves one call at a time, from the domain that opened it";
  if c.helpers = [] || n <= 1 then
    for i = 0 to n - 1 do
      work i
    done
  else begin
    let job = { n; work; next = Atomic.make 0; finished = Atomic.make 0 } in
    Mutex.lock c.mu;
    c.job <- Some job;
    c.epoch <- c.epoch + 1;
    Condition.broadcast c.wake;
    Mutex.unlock c.mu;
    claim c job;
    Mutex.lock c.mu;
    while Atomic.get job.finished < n do
      Condition.wait c.drained c.mu
    done;
    c.job <- None;
    Mutex.unlock c.mu
  end;
  Atomic.set c.calling false

let collect results =
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)

let crew_mapi c f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  drive c ~n (fun i ->
      results.(i) <-
        Some
          (match f i items.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())));
  collect results

(* A one-call crew, no wider than the call. *)
let mapi ?(jobs = 1) f items =
  with_crew ~jobs:(min jobs (List.length items)) (fun c -> crew_mapi c f items)

let map ?jobs f items = mapi ?jobs (fun _ x -> f x) items

(* Mix the task index into the seed the way Rng.split mixes streams:
   a fixed odd multiplier keeps neighbouring indices far apart. *)
let task_seed ~seed i = (seed * 0x9E3779B9) lxor ((i + 1) * 0x85EBCA6B)

let mapi_seeded ?jobs ~seed f items =
  mapi ?jobs (fun i x -> f (Rng.create (task_seed ~seed i)) i x) items

let map_obs ?(jobs = 1) ~obs f items =
  let n = List.length items in
  let children = Array.init n (fun _ -> Obs.child obs) in
  let results = mapi ~jobs (fun i x -> f children.(i) x) items in
  (* fold per-task contexts back in task order: counter totals and
     the re-emitted event stream are independent of domain count *)
  Array.iter (fun c -> Obs.merge ~into:obs c) children;
  results
