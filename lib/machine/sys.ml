type outcome = Continue | Halt_exit of int | Halt_shell

type t = {
  mutable brk : int;
  mutable output : int list;
  mutable shell : (int * int * int) option;
  mutable exit_code : int option;
}

let sys_exit = 1
let sys_brk = 3
let sys_print_int = 4
let sys_execve = 11

let reset t =
  t.brk <- Layout.heap_base;
  t.output <- [];
  t.shell <- None;
  t.exit_code <- None

let create () =
  let t = { brk = 0; output = []; shell = None; exit_code = None } in
  reset t;
  t

let output t = List.rev t.output

let handle t ~number ~args:(a1, a2, a3) =
  if number = sys_exit then begin
    t.exit_code <- Some a1;
    (0, Halt_exit a1)
  end
  else if number = sys_brk then begin
    let old = t.brk in
    let requested = if a1 < 0 then 0 else a1 in
    if old + requested > Layout.heap_limit then (-1, Continue)
    else begin
      t.brk <- old + requested;
      (old, Continue)
    end
  end
  else if number = sys_print_int then begin
    t.output <- a1 :: t.output;
    (0, Continue)
  end
  else if number = sys_execve then begin
    t.shell <- Some (a1, a2, a3);
    (0, Halt_shell)
  end
  else (-1, Continue)

(* --- snapshot ------------------------------------------------------ *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let ints = C.list C.int
let shell = C.option (C.triple C.int C.int C.int)
let exit_code = C.option C.int

let sync io t =
  let io = Wire.section io "OS" in
  t.brk <- Wire.field io "brk" C.int t.brk;
  t.output <- Wire.field io "output" ints t.output;
  t.shell <- Wire.field io "shell" shell t.shell;
  t.exit_code <- Wire.field io "exit_code" exit_code t.exit_code
