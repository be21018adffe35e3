(** Deterministic fixed-width binary serialization for snapshots.

    Writers append to a buffer; readers consume a string with a
    cursor. The byte layout is a pure function of the values written —
    two identical states serialize to identical bytes, which is what
    the snapshot byte-identity contract needs.

    {b Codecs.} Each image record is declared once, as a traversal
    over an {!io} that is either a writer or a reader. [field io name
    codec v] writes [v] and returns it, or reads the field and returns
    what the image holds; a stateful record is then one function,
    [t.f <- field io "f" codec t.f] per field, and an immutable one
    binds each field with [let], in order, and builds the record at the
    end. The codec fixes the field's encoding and its range. Ranges are
    checked both ways: a writer refuses an out-of-range value with
    [Invalid_argument] rather than truncate it, and a reader refuses it
    with {!Corrupt}, whose message names the record (its section) and
    the field. Every count is checked against the bytes left before
    anything is allocated. The reader is strict: truncation, bad tags
    and trailing bytes all raise {!Corrupt}.

    {b A refused read leaves its target half-written.} A traversal
    writes each field into its target as it reads it, and stops at the
    first refusal, so every caller discards the target on {!Corrupt}.
    Checks that relate two fields, or the image to its target, are
    code right after the fields they read. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Corrupt} with a formatted message. *)

(** {1 Raw records}

    A writer and the primitives that lay out a record by hand, for
    tests that forge one independently of its declaration. *)

type w

val writer : unit -> w
val contents : w -> string

type r

val reader : string -> r

val u8 : w -> int -> unit
(** @raise Invalid_argument unless the value is in [0..255]. *)

val int : w -> int -> unit
val str : w -> string -> unit
val list : w -> (w -> 'a -> unit) -> 'a list -> unit
val int_array : w -> int array -> unit

val r_int_array : r -> int array
(** @raise Corrupt before allocating when the length field is
    negative or exceeds the ints the remaining bytes can hold. *)

val tag : w -> string -> unit
(** Short (< 256 byte) section marker. *)

val expect_tag : r -> string -> unit
(** @raise Corrupt when the next marker is not the expected one. *)

(** {1 Codecs} *)

type 'a codec
(** One field's encoding and range. Build each codec once, at top
    level: a codec built per element costs an allocation each. *)

type io
(** A writer or a reader, and the record being traversed. *)

module C : sig
  val int : int codec
  (** Any int, as 8 bytes. *)

  val i64 : int64 codec
  val float : float codec  (** IEEE-754 bits: every float round-trips. *)

  val bool : bool codec
  val str : string codec

  val int_in : lo:int -> hi:int -> int codec
  (** An int in [[lo, hi]], as 8 bytes. *)

  val nat : int codec
  (** [int_in ~lo:0 ~hi:max_int]. *)

  val where : string -> ('a -> bool) -> 'a codec -> 'a codec
  (** [where what ok c] refuses a value [ok] rejects; the refusal
      says the value "is not [what]". *)

  val literal : string -> unit codec
  (** A constant string, such as a file's magic. *)

  val enum : 'a array -> 'a codec
  (** One byte: the value's index in the table. *)

  val sum : ('a -> int) -> 'a codec array -> 'a codec
  (** A variant: one tag byte, [tag_of v], then the value through the
      codec at that index, which sees values of its case only. *)

  val const : 'a -> 'a codec
  (** No bytes; reads as the value. *)

  val conv : ('b -> 'a) -> ('a -> 'b) -> 'b codec -> 'a codec
  (** [conv inj proj c] carries ['a] as [c]'s ['b]. *)

  val list : 'a codec -> 'a list codec
  val array : 'a codec -> 'a array codec
  val int_array : int array codec
  (** Lists and arrays: an 8-byte count, then the elements. *)

  val option : 'a codec -> 'a option codec
  val pair : 'a codec -> 'b codec -> ('a * 'b) codec
  val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

  val record : string -> blank:'a -> (io -> 'a -> 'a) -> 'a codec
  (** An immutable record declared as a traversal [f io v] that binds
      each field with [let] and builds the record: writing applies it
      to the value, reading to [blank], whose fields a read ignores.
      The string names the record in refusals. *)
end

val writing : w -> io
val reading : r -> io

val is_reading : io -> bool

val section : io -> string -> io
(** Write, or read and demand, a section tag; the result names the
    section in refusals. *)

val field : io -> string -> 'a codec -> 'a -> 'a
(** [field io name c v] writes [v] and returns it, or reads and returns
    the field. @raise Corrupt (reading) or Invalid_argument (writing)
    when the value is outside [c]'s range, naming the section and
    [name]. *)

val derived : io -> string -> 'a codec -> (unit -> 'a) -> ('a -> unit) -> unit
(** [derived io name c get set]: a field the target holds in another
    shape. Writing writes [get ()]; reading reads the field and passes
    it to [set]. Neither side computes the other's value. *)

val into : io -> string -> int array -> unit
(** A fixed-length int array, filled in place: written as
    {!int_array}; reading refuses a length other than the target's. *)

val bytes_into : io -> string -> hi:int -> int array -> unit
(** A fixed-length array of small ints, one byte each and no length,
    each in [[0, hi]], filled in place. *)

val encode : (io -> 'a -> unit) -> 'a -> string
(** Write one value through a traversal. *)

val decode : (io -> 'a) -> string -> 'a
(** Read one value through a traversal.
    @raise Corrupt when bytes remain past its end. *)
