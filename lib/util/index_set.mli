(** A set of indices in [\[0, n)] with the minimum in constant time.

    A bit per index, plus one summary level per 32-fold growth of [n]
    (bit [j] of a summary word is set iff word [j] of the level below
    is non-zero).  [add], [remove] and [min_elt] touch one word per
    level: three levels cover 32{^3} = 32768 indices.  The structure
    is allocated once, at [create]. *)

type t

val create : int -> t
(** The empty set over [\[0, n)]. *)

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val is_empty : t -> bool

val min_elt : t -> int option
(** The smallest member. *)
