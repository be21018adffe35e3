(* Deterministic open-loop traffic generation for the httpd victim.

   A connection is one httpd process: its "network buffer" globals
   (net_input / net_len) are staged before the process first runs, and
   the server's request loop re-serves that line for a per-connection
   number of iterations. The generator draws every arrival gap,
   request-mix roll and payload word from one SplitMix64 stream
   seeded by the caller, so a (seed, procs, arrival, mix) tuple names
   exactly one traffic trace — the property the fleet determinism
   suite pins down.

   The mix covers the serving spectrum the security story needs:
   - Valid: in-bounds ASCII request lines, served to completion;
   - Malformed: protocol violations (negative or >512-word lengths
     the network buffer cannot have held) that the hardened parser
     answers with 400 without copying;
   - Oversized: lines long enough to trample handle_request's whole
     frame with unmapped words — a deterministic kill on a native
     server, neutralized by state relocation under PSR/HIPStR;
   - Attack: the same overflow with a code address in the return
     slot, the shape a real redirect attempt has. *)

module Rng = Hipstr_util.Rng
module Mem = Hipstr_machine.Mem
module Machine = Hipstr_machine.Machine
module Fatbin = Hipstr_compiler.Fatbin
module Frame = Hipstr_compiler.Frame
module System = Hipstr.System
module Workloads = Hipstr_workloads.Workloads
module Process = Hipstr_cmp.Process
module Pool = Hipstr_cmp.Pool

(* --- arrival models ------------------------------------------------ *)

(* Rates are requests per million guest cycles: the only clock the
   simulator has is the simulated one, so open-loop load is expressed
   against it. *)
type arrival = Poisson of float | Bursty of { rate : float; burst : int }

let arrival_name = function
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Bursty { rate; burst } -> Printf.sprintf "bursty:%g:%d" rate burst

let arrival_of_string s =
  (* each rejection names the part that failed and what would fix it,
     so a fleet invocation dies with an actionable message instead of
     a generic usage line *)
  let rate r k =
    match float_of_string_opt r with
    | Some r when r > 0. && Float.is_finite r -> k r
    | Some _ ->
      Error
        (Printf.sprintf "%s: rate '%s' must be positive (requests per million guest cycles)" s r)
    | None -> Error (Printf.sprintf "%s: rate '%s' is not a number" s r)
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "poisson"; r ] -> rate r (fun r -> Ok (Poisson r))
  | [ "bursty"; r; b ] ->
    rate r (fun rate ->
        match int_of_string_opt b with
        | Some burst when burst >= 1 -> Ok (Bursty { rate; burst })
        | Some _ -> Error (Printf.sprintf "%s: burst '%s' must be an integer >= 1" s b)
        | None -> Error (Printf.sprintf "%s: burst '%s' is not an integer" s b))
  | "poisson" :: _ -> Error (Printf.sprintf "%s: poisson takes exactly one field, poisson:RATE" s)
  | "bursty" :: _ ->
    Error (Printf.sprintf "%s: bursty takes exactly two fields, bursty:RATE:BURST" s)
  | model :: _ ->
    Error
      (Printf.sprintf "%s: unknown arrival model '%s' (expected poisson:RATE or bursty:RATE:BURST)"
         s model)
  | [] -> Error (Printf.sprintf "%s: expected poisson:RATE or bursty:RATE:BURST" s)

(* --- request mix --------------------------------------------------- *)

type kind = Valid | Oversized | Malformed | Attack

let kinds = [ Valid; Oversized; Malformed; Attack ]

let kind_name = function
  | Valid -> "valid"
  | Oversized -> "oversized"
  | Malformed -> "malformed"
  | Attack -> "attack"

type mix = { mx_valid : int; mx_oversized : int; mx_malformed : int; mx_attack : int }

let default_mix = { mx_valid = 90; mx_oversized = 4; mx_malformed = 3; mx_attack = 3 }

let mix_weight m = function
  | Valid -> m.mx_valid
  | Oversized -> m.mx_oversized
  | Malformed -> m.mx_malformed
  | Attack -> m.mx_attack

let mix_total m = List.fold_left (fun acc k -> acc + mix_weight m k) 0 kinds

let mix_name m =
  Printf.sprintf "valid=%d,oversized=%d,malformed=%d,attack=%d" m.mx_valid m.mx_oversized
    m.mx_malformed m.mx_attack

(* The mix parser rejects every malformed shape with a message naming
   the offending part. Duplicate keys in the named form are an error
   (not first-one-wins): "valid=10,valid=0" used to silently skew the
   mix to whichever binding List.assoc found first. *)
let mix_of_string s =
  let kind_keys = List.map kind_name kinds in
  let parts = String.split_on_char ',' (String.lowercase_ascii (String.trim s)) in
  let check (v, o, m, a) =
    match List.find_opt (fun (_, w) -> w < 0)
            [ ("valid", v); ("oversized", o); ("malformed", m); ("attack", a) ]
    with
    | Some (k, w) ->
      Error (Printf.sprintf "%s: weight %s=%d is negative — mix weights must be >= 0" s k w)
    | None ->
      if v + o + m + a = 0 then
        Error
          (Printf.sprintf
             "%s: mix weights sum to zero — at least one request kind needs a positive weight" s)
      else Ok { mx_valid = v; mx_oversized = o; mx_malformed = m; mx_attack = a }
  in
  if List.exists (fun p -> String.contains p '=') parts then
    let rec go tbl = function
      | [] ->
        let get k = match List.assoc_opt k tbl with Some v -> v | None -> 0 in
        check (get "valid", get "oversized", get "malformed", get "attack")
      | p :: rest -> (
        match String.split_on_char '=' p with
        | [ k; v ] -> (
          let k = String.trim k in
          if not (List.mem k kind_keys) then
            Error
              (Printf.sprintf "%s: unknown request kind '%s' (expected %s)" s k
                 (String.concat ", " kind_keys))
          else if List.mem_assoc k tbl then
            Error
              (Printf.sprintf
                 "%s: duplicate weight for '%s' — each request kind may appear at most once" s k)
          else
            match int_of_string_opt (String.trim v) with
            | Some w -> go ((k, w) :: tbl) rest
            | None ->
              Error (Printf.sprintf "%s: weight '%s' for '%s' is not an integer" s (String.trim v) k))
        | _ ->
          Error
            (Printf.sprintf "%s: '%s' is not a KEY=WEIGHT pair (expected e.g. valid=90)" s p))
    in
    go [] parts
  else
    match List.map (fun p -> int_of_string_opt (String.trim p)) parts with
    | [ Some v; Some o; Some m; Some a ] -> check (v, o, m, a)
    | _ ->
      Error
        (Printf.sprintf
           "%s: expected four comma-separated integer weights V,O,M,A or \
            valid=V,oversized=O,malformed=M,attack=A"
           s)

(* --- connections --------------------------------------------------- *)

type conn = {
  cn_id : int;
  cn_tenant : int;
  cn_kind : kind;
  cn_arrival : float;  (* guest cycles since the fleet epoch *)
  cn_requests : int;  (* iterations the server loop will run *)
  cn_line : int array;  (* words staged at net_input *)
  cn_len : int;  (* value staged at net_len (malformed lines lie) *)
}

let victim = Workloads.httpd

let fatbin () = Workloads.fatbin victim

(* Index of the saved return address in handle_request's locals area,
   in words from &buf[0] — the same arithmetic the ROP harness uses
   (lib/attacks/rop.ml), read from the fat binary's frame metadata so
   payload shapes track the compiler. *)
let ret_index () =
  let frame = (Fatbin.find_func (fatbin ()) "handle_request").Fatbin.fs_frame in
  (frame.Frame.ret_off - frame.Frame.locals_off) / 4

(* The code address attack payloads park in the return slot: the
   entry of a handler the request was not dispatched to. Whether it
   lands (native), or the redirect is caught as a suspicious
   code-cache miss (PSR/HIPStR), is the fleet's security measurement. *)
let attack_target () = (Fatbin.find_func (fatbin ()) "serve_dynamic").Fatbin.fs_cisc.Fatbin.im_entry

let junk_word rng = 0x0BAD0000 lor Rng.int rng 0x10000

(* Overflow lines are 64+ words: long enough that the copy tramples
   handle_request's whole frame and its caller's, which on a native
   server is a deterministic kill (wild fetch/access at an unmapped
   0x0BADxxxx word). Under PSR/HIPStR the translated server's control
   state is not where the attacker's frame model says it is (program
   state relocation doing its job): depending on the payload words
   the smash is either neutralized outright — service completes
   normally — or caught as a clean "return to wild address" kill.
   Never a silent hijack. The fleet's security measurement is exactly
   this contrast. *)
let line_of rng ~ret_index kind =
  match kind with
  | Valid ->
    let n = 4 + Rng.int rng 9 in
    (Array.init n (fun _ -> 65 + Rng.int rng 26), n)
  | Oversized ->
    let n = 64 + Rng.int rng 33 in
    (Array.init n (fun _ -> junk_word rng), n)
  | Attack ->
    (* the same overflow with a code address in the return slot and
       everything above it — the shape of a redirect attempt *)
    let n = 64 in
    let target = attack_target () in
    (Array.init n (fun i -> if i >= ret_index then target else junk_word rng), n)
  | Malformed ->
    (* the staged length lies: either longer than the 512-word network
       buffer or negative — both rejected by the hardened parser *)
    let a = Array.init (4 + Rng.int rng 4) (fun _ -> Rng.int rng 1024) in
    let len = if Rng.bool rng then 513 + Rng.int rng 4096 else -1 - Rng.int rng 4096 in
    (a, len)

let generate ?(tenants = 4) ~seed ~procs ~arrival ~mix () =
  if procs < 1 then invalid_arg "Traffic.generate: procs must be positive";
  if tenants < 1 then invalid_arg "Traffic.generate: tenants must be positive";
  (match arrival with
  | Poisson r when r <= 0. -> invalid_arg "Traffic.generate: arrival rate must be positive"
  | Bursty { rate; burst } when rate <= 0. || burst < 1 ->
    invalid_arg "Traffic.generate: bursty arrivals need a positive rate and burst >= 1"
  | _ -> ());
  if mix_total mix <= 0 || List.exists (fun k -> mix_weight mix k < 0) kinds then
    invalid_arg "Traffic.generate: mix weights must be non-negative with a positive total";
  let ri = ret_index () in
  let total = mix_total mix in
  let rng = Rng.create seed in
  let clock = ref 0. in
  (* Rng.float is in [0, 1), so 1 - u is in (0, 1] and the draw is a
     finite exponential with mean 1. *)
  let exp_draw () = -.Float.log (1. -. Rng.float rng) in
  List.init procs (fun i ->
      let gap =
        match arrival with
        | Poisson rate -> exp_draw () *. (1e6 /. rate)
        | Bursty { rate; burst } ->
          (* whole bursts arrive back-to-back; inter-burst gaps are
             stretched by the burst size so the long-run rate holds *)
          if i mod burst = 0 then exp_draw () *. (1e6 /. rate) *. float_of_int burst else 0.
      in
      clock := !clock +. gap;
      let kind =
        let roll = Rng.int rng total in
        let rec pick acc = function
          | [ k ] -> k
          | k :: rest ->
            let acc = acc + mix_weight mix k in
            if roll < acc then k else pick acc rest
          | [] -> assert false
        in
        pick 0 kinds
      in
      let line, len = line_of rng ~ret_index:ri kind in
      {
        cn_id = i;
        cn_tenant = i mod tenants;
        cn_kind = kind;
        cn_arrival = !clock;
        cn_requests = 1 + Rng.int rng 3;
        cn_line = line;
        cn_len = len;
      })

(* --- materialization ----------------------------------------------- *)

let stage conn sys =
  let fb = System.fatbin sys in
  let mem = Machine.mem (System.machine sys) in
  let input = Fatbin.global_addr fb "net_input" in
  Array.iteri (fun i w -> Mem.write32 mem (input + (4 * i)) w) conn.cn_line;
  Mem.write32 mem (Fatbin.global_addr fb "net_len") conn.cn_len;
  Mem.write32 mem (Fatbin.global_addr fb "requests") conn.cn_requests

let default_fuel = 200_000

let spawn ?obs ?cfg ?(seed = 1) ?start_isa ?(fuel = default_fuel) ?spare ~mode conn =
  let p =
    Process.create ?obs ?cfg
      ~seed:(Pool.task_seed ~seed conn.cn_id)
      ?start_isa ?spare ~mode ~pid:conn.cn_id
      ~name:(Printf.sprintf "httpd.%s.%d" (kind_name conn.cn_kind) conn.cn_id)
      ~fuel (fatbin ())
  in
  stage conn (Process.sys p);
  p
