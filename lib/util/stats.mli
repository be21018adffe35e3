(** Small numeric helpers used by the experiments. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list. Requires positive inputs. *)

val median : float list -> float

val percentile : float list -> float -> float
(** [percentile xs q] is the exact q-th percentile ([q] in [0, 100])
    of [xs], linearly interpolated between order statistics.
    [percentile xs 50. = median xs] on non-empty [xs].
    @raise Invalid_argument if [q] is outside [0, 100] or [xs] is
    empty — a percentile of no data is undefined, and silently
    answering 0 has hidden zero-admission fleet runs before. *)

val percent : float -> string
(** Format a ratio as a percentage with one decimal, e.g. "86.9%". *)

val log2 : float -> float

val human_big : float -> string
(** Format a huge count in scientific notation, e.g. "9.11e33". *)

val clamp : lo:float -> hi:float -> float -> float
