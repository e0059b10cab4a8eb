(** Scalar evolution: symbolic values as affine functions of the
    enclosing loop induction variables (§5.2.2).

    A symbolic value is either an affine form [c0 + Σ coeff_d * iv_d]
    over loop depths [d], a value loaded from a known allocation site
    (the signature of an indirect access like [B[A[i]]]), or unknown.
    Loop depths are 0-based from the outermost analyzed loop. *)

type t =
  | Affine of { c0 : int64; terms : (int * int64) list }
      (** [terms] maps loop depth -> coefficient; sorted by depth,
          coefficients non-zero. *)
  | Loaded of int  (** value loaded from this allocation site *)
  | Unknown

val const : int64 -> t
val iv : depth:int -> lo:t -> step:t -> t
(** The symbolic value of an induction variable given symbolic bounds:
    [lo + step*k] becomes [Affine] when [lo]/[step] are constants. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Product; affine only when one side is a constant. *)

val const_value : t -> int64 option
(** [Some c] iff the value is the constant [c]. *)

val coeff : t -> depth:int -> int64 option
(** Coefficient of [iv_depth]; [Some 0] for affine forms that do not
    mention it, [None] for non-affine values. *)

val innermost_stride : t -> depth:int -> int64 option
(** Alias of [coeff] with the intent "bytes advanced per iteration of
    the loop at [depth]". *)

val depends_on : t -> depth:int -> bool
val equal : t -> t -> bool
