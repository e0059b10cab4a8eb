(** Small statistics helpers used by the profiler and bench harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation on a
    sorted copy.  Raises [Invalid_argument] on the empty array. *)

val min_max : float array -> float * float
(** Minimum and maximum.  Raises [Invalid_argument] on the empty array. *)

type online
(** Online (Welford) accumulator for mean/variance without storing samples. *)

val online_create : unit -> online
val online_add : online -> float -> unit
val online_count : online -> int
val online_mean : online -> float
val online_stddev : online -> float

val online_reset : online -> unit
(** Forget all samples (between runs). *)
