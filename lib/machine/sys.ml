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

let save w t =
  Wire.tag w "OS";
  Wire.int w t.brk;
  Wire.list w Wire.int t.output;
  Wire.option w
    (fun w (a, b, c) ->
      Wire.int w a;
      Wire.int w b;
      Wire.int w c)
    t.shell;
  Wire.option w Wire.int t.exit_code

let restore t r =
  Wire.expect_tag r "OS";
  t.brk <- Wire.r_int r;
  t.output <- Wire.r_list r Wire.r_int;
  t.shell <-
    Wire.r_option r (fun r ->
        let a = Wire.r_int r in
        let b = Wire.r_int r in
        let c = Wire.r_int r in
        (a, b, c));
  t.exit_code <- Wire.r_option r Wire.r_int
