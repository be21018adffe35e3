(* SplitMix64. The state is one 64-bit word, kept in an 8-byte buffer
   and read and written through the unboxed bytes primitives: a
   [mutable int64] record field boxes its value on every store, and a
   draw returning an [int64] boxes its result, which cost 6 minor words
   per [int] and 8 per [float]. Each draw below inlines the step
   ([next]), so its 64-bit intermediates stay in registers and only the
   result leaves the function. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set64 g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 step: advance by the golden gamma and mix. *)
let[@inline] next g =
  let z = Int64.add (get64 g 0) golden in
  set64 g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = of_state (Int64.logxor (next g) 0xA5A5A5A5A5A5A5A5L)

let bits32 g = Int64.to_int (Int64.shift_right_logical (next g) 32)

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.shift_right_logical (next g) 2) mod n

let bool g = Int64.to_int (Int64.logand (next g) 1L) = 1

let float g = Int64.to_float (Int64.shift_right_logical (next g) 11) *. 0x1.p-53

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let sample_distinct g k n =
  if k > n then invalid_arg "Rng.sample_distinct: k > n";
  (* Floyd's algorithm: k iterations, set-based, O(k) expected. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let t = int g (j + 1) in
    let v = if Hashtbl.mem seen t then j else t in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

(* Snapshot support: the whole generator is one 64-bit word, so
   save/restore is exact by construction. *)
let state g = get64 g 0

let set_state g s = set64 g 0 s
