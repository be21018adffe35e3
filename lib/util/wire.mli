(** Deterministic fixed-width binary serialization for snapshots.

    Writers append to a {!Buffer.t}; readers consume a string with a
    cursor and are strict: truncation, bad tags and trailing bytes
    all raise {!Corrupt}. The byte layout is a pure function of the
    values written — two identical states serialize to identical
    bytes, which is what the snapshot byte-identity contract needs. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Corrupt} with a formatted message. *)

type w = Buffer.t

val writer : unit -> w
val contents : w -> string

type r

val reader : string -> r
val remaining : r -> int

val u8 : w -> int -> unit
val r_u8 : r -> int

val i64 : w -> int64 -> unit
val r_i64 : r -> int64

val int : w -> int -> unit
val r_int : r -> int

val float : w -> float -> unit
(** Written as IEEE-754 bits — round-trips every float exactly. *)

val r_float : r -> float

val bool : w -> bool -> unit
val r_bool : r -> bool

val str : w -> string -> unit
val r_str : r -> string

val list : w -> (w -> 'a -> unit) -> 'a list -> unit
val r_list : r -> (r -> 'a) -> 'a list

val option : w -> (w -> 'a -> unit) -> 'a option -> unit
val r_option : r -> (r -> 'a) -> 'a option

val int_array : w -> int array -> unit
val r_int_array : r -> int array
(** @raise Corrupt before allocating when the length field is
    negative or exceeds the ints the remaining bytes can hold. *)

val tag : w -> string -> unit
(** Short (< 256 byte) section marker. *)

val expect_tag : r -> string -> unit
(** @raise Corrupt when the next marker is not the expected one. *)

val expect_end : r -> unit
(** @raise Corrupt when bytes remain past the logical end. *)
