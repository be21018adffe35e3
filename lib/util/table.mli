(** Plain-text table rendering for experiment output.

    Every experiment prints its paper table/figure as an aligned text
    table; {!cells} flattens the same table into the one-cell-per-line
    form the committed golden [BENCH_tables.tsv] is made of. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells. *)

val render : t -> string
(** Render with a header rule and right-padded columns. *)

val cells : id:string -> t -> string
(** One line per cell past the first column, rows in order:
    [id<TAB>first cell of the row<TAB>column header<TAB>cell]. A diff
    of two such dumps names the table, the row and the column of every
    changed number. Cells beyond the header are dropped. *)
