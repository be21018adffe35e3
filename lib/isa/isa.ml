let desc = function Desc.Cisc -> Cisc.desc | Desc.Risc -> Risc.desc
let name = function Desc.Cisc -> "cisc" | Desc.Risc -> "risc"

let of_name s =
  match String.lowercase_ascii s with
  | "cisc" | "x86" -> Some Desc.Cisc
  | "risc" | "arm" -> Some Desc.Risc
  | _ -> None

let tag = function Desc.Cisc -> 0 | Desc.Risc -> 1

let of_tag = function
  | 0 -> Desc.Cisc
  | 1 -> Desc.Risc
  | n -> Hipstr_util.Wire.corrupt "unknown ISA tag %d" n

let length w i = match w with Desc.Cisc -> Cisc.length i | Desc.Risc -> Risc.length i
let encodable w i = match w with Desc.Cisc -> Cisc.encodable i | Desc.Risc -> Risc.encodable i

let encode_into w buf ~at i =
  match w with Desc.Cisc -> Cisc.encode_into buf ~at i | Desc.Risc -> Risc.encode_into buf ~at i

let encode w ~at i =
  let buf = Buffer.create 12 in
  encode_into w buf ~at i;
  Buffer.contents buf

let decode w ~read addr =
  match w with Desc.Cisc -> Cisc.decode ~read addr | Desc.Risc -> Risc.decode ~read addr
