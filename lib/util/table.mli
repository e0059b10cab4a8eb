(** ASCII table rendering for the bench harness and reports.

    Every figure harness prints its series through this module so that
    output is uniform and diffable. *)

type t

val create : header:string list -> t
(** New table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; short rows are padded with empty cells. *)

val render : t -> string
(** Render with aligned columns and a header separator. *)

val print : t -> unit
(** [render] to stdout, followed by a newline. *)
