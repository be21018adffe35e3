(** The experiment registry: every table and figure of the paper's
    evaluation, addressable by id (used by the CLI and the bench
    harness, whose [tables] golden holds every cell). *)

type experiment = {
  ex_id : string;  (** e.g. "fig9" *)
  ex_title : string;
  ex_paper : string;  (** what the paper reports there *)
  ex_run : unit -> Hipstr_util.Table.t;
}

val all : experiment list

val find : string -> experiment option

val run_many : ?jobs:int -> experiment list -> string list
(** Regenerate several experiments, fanned across up to [jobs]
    domains ({!Hipstr_cmp.Pool}), each rendered as title, rule, table
    and paper line; the returned outputs are in input order and
    byte-identical to running serially ([jobs] defaults to 1). *)
