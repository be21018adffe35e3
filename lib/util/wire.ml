(* A tiny deterministic binary wire format for snapshot images.

   Writers append to a [Buffer.t]; readers are a string plus a
   cursor. Everything is fixed-width little-endian (no varints), so
   an image's byte layout is a pure function of the values written —
   the property the snapshot byte-identity contract leans on.

   Each image record is declared once, as one traversal over an [io]
   that is either a writer or a reader: [field io name codec v] writes
   [v] and returns it, or reads the field and returns what the image
   holds. The codec fixes the field's encoding and its range, and the
   range is checked both ways: a writer refuses an out-of-range value
   ([Invalid_argument]) instead of truncating it, and a reader refuses
   it with [Corrupt], naming the record and the field. Counts are
   checked against the bytes left before anything is allocated. The
   reader is strict: running off the end, a bad tag or a section tag
   mismatch all raise [Corrupt], and [decode] rejects trailing
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

(* A codec's refusal of a value; [field] names the record and field. *)
exception Range of string

let range fmt = Printf.ksprintf (fun m -> raise (Range m)) fmt

(* ---- primitives ---- *)

let u8 (w : w) v =
  if v land 0xff <> v then invalid_arg (Printf.sprintf "Wire.u8: %d is not a byte" v);
  Buffer.add_char w (Char.unsafe_chr v)

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

let str (w : w) s =
  int w (String.length s);
  Buffer.add_string w s

let r_str r =
  let n = r_int r in
  if n < 0 || n > remaining r then range "length %d does not fit the %d bytes left" n (remaining r);
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let list (w : w) f xs =
  int w (List.length xs);
  List.iter (f w) xs

let int_array (w : w) a =
  int w (Array.length a);
  Array.iter (int w) a

let tag (w : w) s =
  u8 w (String.length s);
  Buffer.add_string w s

let expect_tag r s =
  let n = r_u8 r in
  need r n "section tag";
  let got = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  if got <> s then corrupt "expected section '%s', found '%s' at offset %d" s got (r.pos - n)

(* ---- codecs ---- *)

(* [size] is the fewest bytes a value takes, which caps a count. *)
type 'a codec = { put : w -> 'a -> unit; get : r -> 'a; size : int }

type io = { dir : dir; sect : string }
and dir = W of w | R of r

module C = struct
  (* The leaf codecs come last: their names shadow the primitives. *)
  let int_in ~lo ~hi =
    let check v = if v < lo || v > hi then range "%d is outside [%d, %d]" v lo hi in
    {
      put = (fun w v -> check v; int w v);
      get = (fun r -> let v = r_int r in check v; v);
      size = 8;
    }

  let nat = int_in ~lo:0 ~hi:max_int

  let where what ok c =
    let check v = if not (ok v) then range "is not %s" what in
    { c with put = (fun w v -> check v; c.put w v); get = (fun r -> let v = c.get r in check v; v) }

  let literal s =
    {
      put = (fun w () -> str w s);
      get = (fun r -> let got = r_str r in if got <> s then range "%S is not %S" got s);
      size = 8;
    }

  let const v = { put = (fun _ _ -> ()); get = (fun _ -> v); size = 0 }
  let conv inj proj c =
    { put = (fun w v -> c.put w (proj v)); get = (fun r -> inj (c.get r)); size = c.size }

  let sum tag_of cases =
    let n = Array.length cases in
    {
      put = (fun w v -> let k = tag_of v in u8 w k; cases.(k).put w v);
      get =
        (fun r ->
          let k = r_u8 r in
          if k >= n then range "tag %d is not one of 0..%d" k (n - 1);
          cases.(k).get r);
      size = 1;
    }

  let enum table =
    let rec find v k = if table.(k) = v then k else find v (k + 1) in
    sum (fun v -> find v 0) (Array.map const table)

  let count r c =
    let n = r_int r in
    if n < 0 || n > remaining r / Int.max 1 c.size then
      range "count %d does not fit the %d bytes left" n (remaining r);
    n

  let list c =
    {
      put = (fun w xs -> list w c.put xs);
      get = (fun r -> List.init (count r c) (fun _ -> c.get r));
      size = 8;
    }

  let array c =
    {
      put = (fun w a -> int w (Array.length a); Array.iter (c.put w) a);
      get = (fun r -> Array.init (count r c) (fun _ -> c.get r));
      size = 8;
    }

  let option c =
    {
      put = (fun w -> function None -> u8 w 0 | Some v -> u8 w 1; c.put w v);
      get =
        (fun r -> match r_u8 r with 0 -> None | 1 -> Some (c.get r) | k -> range "option tag %d" k);
      size = 1;
    }

  let pair a b =
    {
      put = (fun w (x, y) -> a.put w x; b.put w y);
      get = (fun r -> let x = a.get r in let y = b.get r in (x, y));
      size = a.size + b.size;
    }

  let triple a b c =
    {
      put = (fun w (x, y, z) -> a.put w x; b.put w y; c.put w z);
      get = (fun r -> let x = a.get r in let y = b.get r in let z = c.get r in (x, y, z));
      size = a.size + b.size + c.size;
    }

  let record name ~blank f =
    {
      put = (fun w v -> ignore (f { dir = W w; sect = name } v));
      get = (fun r -> f { dir = R r; sect = name } blank);
      size = 1;
    }

  let bool =
    {
      put = (fun w v -> u8 w (if v then 1 else 0));
      get = (fun r -> match r_u8 r with 0 -> false | 1 -> true | v -> range "bool tag %d" v);
      size = 1;
    }

  let float =
    {
      put = (fun w v -> i64 w (Int64.bits_of_float v));
      get = (fun r -> Int64.float_of_bits (r_i64 r));
      size = 8;
    }

  let str = { put = str; get = r_str; size = 8 }
  let i64 = { put = i64; get = r_i64; size = 8 }
  let int = { put = int; get = r_int; size = 8 }
  let int_array = array int
end

(* For tests that read a forged record by hand. *)
let r_int_array r = try C.int_array.get r with Range m -> corrupt "int array: %s" m

(* ---- traversals ---- *)

let writing w = { dir = W w; sect = "image" }
let reading r = { dir = R r; sect = "image" }
let is_reading io = match io.dir with R _ -> true | W _ -> false

let refuse io name m =
  match io.dir with
  | W _ -> invalid_arg (Printf.sprintf "Wire: writing %s.%s: %s" io.sect name m)
  | R r -> corrupt "%s.%s: %s (offset %d)" io.sect name m r.pos

let field io name c v =
  match io.dir with
  | W w ->
    (try c.put w v with Range m -> refuse io name m);
    v
  | R r -> ( try c.get r with Range m -> refuse io name m)

let derived io name c get set =
  match io.dir with
  | W w -> ( try c.put w (get ()) with Range m -> refuse io name m)
  | R r -> set (try c.get r with Range m -> refuse io name m)

let section io name =
  (match io.dir with W w -> tag w name | R r -> expect_tag r name);
  { io with sect = name }

let into io name a =
  let n = Array.length a in
  match io.dir with
  | W w -> int_array w a
  | R r ->
    let m = r_int r in
    if m <> n then refuse io name (Printf.sprintf "holds %d ints, this target %d" m n);
    need r (8 * n) name;
    for i = 0 to n - 1 do
      a.(i) <- Int64.to_int (String.get_int64_le r.src (r.pos + (8 * i)))
    done;
    r.pos <- r.pos + (8 * n)

let bytes_into io name ~hi a =
  let bad i v = refuse io name (Printf.sprintf "element %d is %d, outside [0, %d]" i v hi) in
  match io.dir with
  | W w ->
    Array.iteri
      (fun i v -> if v < 0 || v > hi then bad i v else Buffer.add_char w (Char.unsafe_chr v))
      a
  | R r ->
    need r (Array.length a) name;
    for i = 0 to Array.length a - 1 do
      let v = Char.code r.src.[r.pos + i] in
      if v > hi then bad i v else a.(i) <- v
    done;
    r.pos <- r.pos + Array.length a

let encode f v =
  let w = writer () in
  f (writing w) v;
  contents w

let decode f image =
  let r = reader image in
  let v = f (reading r) in
  if remaining r <> 0 then corrupt "trailing garbage: %d bytes past the end of image" (remaining r);
  v
