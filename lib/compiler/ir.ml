open Hipstr_isa

type value = int
type label = int

type rv = V of value | C of int

type instr =
  | Def of value * rv
  | Bin of Minstr.binop * value * rv * rv
  | Cmpset of Minstr.cond * value * rv * rv
  | Load of value * rv * int
  | Store of rv * int * rv
  | Addr_local of value * int
  | Addr_global of value * string
  | Addr_func of value * string
  | Call of { dst : value option; callee : string; args : rv list; site : int }
  | Calli of { dst : value option; fp : rv; args : rv list; site : int }
  | Syscall of { dst : value option; number : rv; args : rv list }

type term = Ret of rv option | Jmp of label | Br of Minstr.cond * rv * rv * label * label

type block = { b_label : label; b_instrs : instr array; b_term : term }

type func = {
  fn_name : string;
  fn_params : value list;
  fn_nvals : int;
  fn_locals_bytes : int;
  fn_blocks : block array;
  fn_nsites : int;
  fn_fp_values : value list;
}

type program = { pr_funcs : func list; pr_globals : (string * int * int list) list }

let defs = function
  | Def (d, _) | Bin (_, d, _, _) | Cmpset (_, d, _, _) | Load (d, _, _) | Addr_local (d, _)
  | Addr_global (d, _) | Addr_func (d, _) ->
    [ d ]
  | Call { dst; _ } | Calli { dst; _ } | Syscall { dst; _ } -> (
    match dst with Some d -> [ d ] | None -> [])
  | Store _ -> []

let uses = function
  | Def (_, s) -> [ s ]
  | Bin (_, _, a, b) | Cmpset (_, _, a, b) -> [ a; b ]
  | Load (_, a, _) -> [ a ]
  | Store (a, _, s) -> [ a; s ]
  | Addr_local _ | Addr_global _ | Addr_func _ -> []
  | Call { args; _ } -> args
  | Calli { fp; args; _ } -> fp :: args
  | Syscall { number; args; _ } -> number :: args

let term_uses = function Ret None | Jmp _ -> [] | Ret (Some v) -> [ v ] | Br (_, a, b, _, _) -> [ a; b ]

let successors = function Ret _ -> [] | Jmp l -> [ l ] | Br (_, _, _, l1, l2) -> [ l1; l2 ]

let values_of_rvs rvs = List.filter_map (function V v -> Some v | C _ -> None) rvs

let instr_has_call = function
  | Call _ | Calli _ | Syscall _ -> true
  | Def _ | Bin _ | Cmpset _ | Load _ | Store _ | Addr_local _ | Addr_global _ | Addr_func _ ->
    false

let validate p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_func f =
    let nblocks = Array.length f.fn_blocks in
    if nblocks = 0 then err "%s: no blocks" f.fn_name
    else begin
      let sites = Hashtbl.create 8 in
      let problem = ref None in
      let set_problem s = if !problem = None then problem := Some s in
      let check_value v =
        if v < 0 || v >= f.fn_nvals then set_problem (Printf.sprintf "%s: value v%d out of range" f.fn_name v)
      in
      let check_rv = function V v -> check_value v | C _ -> () in
      let check_site s =
        if s < 0 || s >= f.fn_nsites then
          set_problem (Printf.sprintf "%s: site %d out of range" f.fn_name s)
        else if Hashtbl.mem sites s then set_problem (Printf.sprintf "%s: duplicate site %d" f.fn_name s)
        else Hashtbl.add sites s ()
      in
      Array.iteri
        (fun i b ->
          if b.b_label <> i then set_problem (Printf.sprintf "%s: block %d mislabeled" f.fn_name i);
          Array.iter
            (fun ins ->
              List.iter check_value (defs ins);
              List.iter check_rv (uses ins);
              match ins with
              | Call { site; _ } | Calli { site; _ } -> check_site site
              | Def _ | Bin _ | Cmpset _ | Load _ | Store _ | Addr_local _ | Addr_global _
              | Addr_func _ | Syscall _ ->
                ())
            b.b_instrs;
          List.iter check_rv (term_uses b.b_term);
          List.iter
            (fun l ->
              if l < 0 || l >= nblocks then
                set_problem (Printf.sprintf "%s: label L%d out of range" f.fn_name l))
            (successors b.b_term))
        f.fn_blocks;
      match !problem with None -> Ok () | Some s -> Error s
    end
  in
  let rec all = function
    | [] ->
      if List.exists (fun f -> f.fn_name = "main") p.pr_funcs then Ok ()
      else Error "no main function"
    | f :: rest -> (
      match check_func f with Ok () -> all rest | Error _ as e -> e)
  in
  all p.pr_funcs
