type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 step: advance by the golden gamma and mix. *)
let next_int64 g =
  g.state <- Int64.add g.state golden;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g =
  let s = next_int64 g in
  { state = Int64.logxor s 0xA5A5A5A5A5A5A5A5L }

let bits62 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

let bits32 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 32)

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits62 g mod n

let bool g = Int64.logand (next_int64 g) 1L = 1L

let float g = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) *. 0x1.p-53

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
let state g = g.state

let set_state g s = g.state <- s
