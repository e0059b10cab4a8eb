(** Small statistics helpers used by the profiler and bench harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation on a
    sorted copy.  Raises [Invalid_argument] on the empty array and on a
    [p] outside [\[0,100\]] or NaN. *)

val percentiles : float array -> float array -> float array
(** [percentiles xs ps] is [Array.map (percentile xs) ps], bit for bit.
    Each figure reads the ranks a stable sort of [xs] by [compare]
    (NaN first) would hold, selected in one copy of [xs] without
    sorting it and without allocating per element; so
    [percentiles xs [|100.0|]] is the maximum of a NaN-free [xs].
    Raises as {!percentile} does. *)

type online
(** Online (Welford) accumulator for mean/variance without storing samples. *)

val online_create : unit -> online
val online_add : online -> float -> unit
val online_count : online -> int
val online_mean : online -> float
val online_stddev : online -> float

val online_reset : online -> unit
(** Forget all samples (between runs). *)
