(** Per-thread state keyed by thread (tenant) id.

    A hash table that also keeps every entry with a small non-negative
    key in a dense array, so the per-access lookup is an array read
    with no hashing and no allocation.  The table stays the record of
    what exists: [fold] and [iter] visit entries in exactly the order
    the same table would without the array, which keeps float folds
    over per-thread state bit-identical. *)

type 'a t

val create : int -> 'a t
(** Empty map; the argument is the table's initial size. *)

val find_opt : 'a t -> int -> 'a option

val replace : 'a t -> int -> 'a -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Table (hash bucket) order. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Table (hash bucket) order. *)

val reset : 'a t -> unit
(** Drop every entry. *)
