(* A tiny deterministic binary wire format for snapshot images.

   Writers append to a [Buffer.t]; readers are a string plus a
   cursor. Everything is fixed-width little-endian (no varints), so
   an image's byte layout is a pure function of the values written —
   the property the snapshot byte-identity contract leans on. The
   reader is strict: running off the end, a bad bool/option/loc tag
   or a section tag mismatch all raise [Corrupt] with a message that
   names the offending section, and [expect_end] rejects trailing
   garbage. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type w = Buffer.t

let writer () = Buffer.create 4096
let contents (w : w) = Buffer.contents w

type r = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let remaining r = String.length r.src - r.pos

let need r n what =
  if n < 0 || remaining r < n then
    corrupt "truncated image: need %d bytes for %s at offset %d (have %d)" n what r.pos
      (remaining r)

(* ---- primitives ---- *)

let u8 (w : w) v = Buffer.add_char w (Char.chr (v land 0xff))

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let i64 (w : w) v = Buffer.add_int64_le w v

let r_i64 r =
  need r 8 "i64";
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let int (w : w) v = i64 w (Int64.of_int v)
let r_int r = Int64.to_int (r_i64 r)

let float (w : w) v = i64 w (Int64.bits_of_float v)
let r_float r = Int64.float_of_bits (r_i64 r)

let bool (w : w) v = u8 w (if v then 1 else 0)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad bool tag %d at offset %d" v (r.pos - 1)

let str (w : w) s =
  int w (String.length s);
  Buffer.add_string w s

let r_str r =
  let n = r_int r in
  need r n "string body";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* ---- composites ---- *)

let list (w : w) f xs =
  int w (List.length xs);
  List.iter (f w) xs

let r_list r f =
  let n = r_int r in
  if n < 0 then corrupt "negative list length %d at offset %d" n r.pos;
  List.init n (fun _ -> f r)

let option (w : w) f = function
  | None -> u8 w 0
  | Some v ->
    u8 w 1;
    f w v

let r_option r f =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> corrupt "bad option tag %d at offset %d" v (r.pos - 1)

let int_array (w : w) a =
  int w (Array.length a);
  Array.iter (int w) a

(* The length is checked against the bytes left before anything is
   allocated: a forged length must not size an allocation. *)
let r_int_array r =
  let n = r_int r in
  if n < 0 then corrupt "negative array length %d at offset %d" n r.pos;
  if n > remaining r / 8 then
    corrupt "truncated image: array of %d ints at offset %d (have %d bytes)" n r.pos (remaining r);
  Array.init n (fun _ -> r_int r)

(* ---- section framing ---- *)

let tag (w : w) s =
  u8 w (String.length s);
  Buffer.add_string w s

let expect_tag r s =
  let n = r_u8 r in
  need r n "section tag";
  let got = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  if got <> s then corrupt "expected section '%s', found '%s' at offset %d" s got (r.pos - n)

let expect_end r =
  if remaining r <> 0 then corrupt "trailing garbage: %d bytes past the end of image" (remaining r)
