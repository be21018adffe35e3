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

let codec = Hipstr_util.Wire.C.enum [| of_tag 0; of_tag 1 |]

let length w i = match w with Desc.Cisc -> Cisc.length i | Desc.Risc -> Risc.length i
let encodable w i = match w with Desc.Cisc -> Cisc.encodable i | Desc.Risc -> Risc.encodable i

let encode_into w b ~pos ~at i =
  match w with
  | Desc.Cisc -> Cisc.encode_into b ~pos ~at i
  | Desc.Risc -> Risc.encode_into b ~pos ~at i

let encode w ~at i =
  let b = Bytes.create (length w i) in
  if encode_into w b ~pos:0 ~at i <> Bytes.length b then
    failwith (name w ^ ": encoding and length disagree");
  Bytes.unsafe_to_string b

let decode w ~read addr =
  match w with Desc.Cisc -> Cisc.decode ~read addr | Desc.Risc -> Risc.decode ~read addr
