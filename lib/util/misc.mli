(** Assorted numeric helpers shared across the code base. *)

val round_up : int -> int -> int
(** [round_up x align] is the least multiple of [align] >= [x].
    Requires [align > 0]. *)

val round_down : int -> int -> int
(** [round_down x align] is the greatest multiple of [align] <= [x]. *)

val is_pow2 : int -> bool
(** True for positive powers of two. *)

val next_pow2 : int -> int
(** Least power of two >= [x]; requires [x >= 1]. *)

val log2 : int -> int
(** Floor of the base-2 log; requires [x >= 1]. *)

val hash_int : int -> int
(** A hash computed in OCaml whose low bits depend on every bit. *)

module Int_tbl : Hashtbl.S with type key = int
(** An int-keyed hash table on [hash_int]: no call to the generic hash
    or the polymorphic compare. *)

val clamp : lo:int -> hi:int -> int -> int
(** Clamp into [\[lo, hi\]]. *)

val clamp_f : lo:float -> hi:float -> float -> float
(** Clamp into [\[lo, hi\]]. *)

val divide_ceil : int -> int -> int
(** Ceiling division of non-negative integers. *)

val merge_extents : (int * int) list -> (int * int) list
(** Sort [(offset, len)] extents by offset and coalesce the ones that
    overlap or touch, so the result covers the same bytes with disjoint,
    ascending extents. *)
