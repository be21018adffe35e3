(** A deterministic work-queue over OCaml 5 [Domain]s.

    Fans independent simulations — experiment sweep points, fuzz
    seeds, brute-force trials, fleet shard waves — across domains.
    Determinism contract: results are collected by task index,
    per-task randomness comes only from [(seed, index)]
    ({!mapi_seeded}), and observability flows through per-task child
    contexts merged back in task order ({!map_obs}). A run with
    [~jobs:4] is therefore bit-identical to [~jobs:1]; only the wall
    clock changes.

    Tasks must not share mutable state beyond what they guard
    themselves (the repo's memo caches — workload fat binaries, the
    experiment harness baselines — are mutex-guarded and
    compute-once, so sharing them is deterministic too).

    If a task raises, the other tasks of the call still run, and the
    exception is re-raised in the caller once every task of the call
    has finished — the lowest-index failure wins, deterministically.

    Work runs on a {!crew}: helper domains spawned once for a scope
    and joined when it ends. A run that fans out many times (a fleet
    wave, a scheduling round) opens one crew for the whole run instead
    of spawning domains on every call. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type crew
(** [jobs - 1] helper domains that, together with the domain that
    opened the crew, claim task indices from one atomic counter per
    call. Between calls the helpers sleep. *)

val with_crew : jobs:int -> (crew -> 'a) -> 'a
(** [with_crew ~jobs body] spawns [jobs - 1] helpers (none when
    [jobs <= 1]), runs [body], and joins every helper when [body]
    returns or raises. Keep the scope as tight as the parallel work:
    an idle helper still takes part in every stop-the-world minor
    collection, so it slows the serial code around it. *)

val crew_mapi : crew -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [crew_mapi c f items] = [List.mapi f items], computed on the
    caller and [c]'s helpers. Call it from the domain that opened [c],
    one call at a time; a call from inside one of its own tasks raises
    [Invalid_argument] (re-raised by that outer call like any task
    failure). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] = [List.map f items], computed on a one-call
    crew of up to [jobs] domains ([jobs] defaults to 1 = fully
    serial, no domain is spawned). *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

val mapi_seeded : ?jobs:int -> seed:int -> (Hipstr_util.Rng.t -> int -> 'a -> 'b) -> 'a list -> 'b list
(** Each task receives a private {!Hipstr_util.Rng.t} derived from
    [(seed, index)] only — never from domain identity or timing. *)

val map_obs :
  ?jobs:int -> obs:Hipstr_obs.Obs.t -> (Hipstr_obs.Obs.t -> 'a -> 'b) -> 'a list -> 'b list
(** Each task runs against a fresh {!Hipstr_obs.Obs.child} of [obs];
    after the call the children are folded into [obs] in task order,
    so the merged counter totals and event stream match a serial run
    exactly. *)

val task_seed : seed:int -> int -> int
(** The seed-mixing function {!mapi_seeded} uses (exposed so callers
    can reproduce one task in isolation). *)
