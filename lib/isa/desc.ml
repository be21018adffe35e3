type which = Cisc | Risc

type t = {
  which : which;
  nregs : int;
  sp : Minstr.reg;
  lr : Minstr.reg option;
  call_pushes_ret : bool;
  scratch : Minstr.reg;
  scratch2 : Minstr.reg;
  arg_regs : Minstr.reg list;
  ret_reg : Minstr.reg;
  callee_saved : Minstr.reg list;
  caller_saved : Minstr.reg list;
  allocatable : Minstr.reg list;
  align : int;
}

let cisc_names = [| "ax"; "bx"; "cx"; "dx"; "si"; "di"; "bp"; "sp" |]

let reg_name t r =
  match t.which with
  | Cisc -> if r >= 0 && r < 8 then cisc_names.(r) else Printf.sprintf "r?%d" r
  | Risc ->
    if r = t.sp then "sp"
    else if Some r = t.lr then "lr"
    else if r >= 0 && r < t.nregs then Printf.sprintf "r%d" r
    else Printf.sprintf "r?%d" r

let other = function Cisc -> Risc | Risc -> Cisc
