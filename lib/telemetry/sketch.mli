(** Deterministic Space-Saving top-K sketch.

    Tracks the heaviest string keys of an update stream in O(k) space:
    at most [k] entries are monitored; an unmonitored key evicts the
    entry with the minimum count and inherits that count as its
    overestimation error.  Guarantees (Metwally et al. 2005): every
    key with true frequency > [total/k] is monitored, and each
    reported count exceeds the true count by at most its [err]
    (itself bounded by [total/k] = [error_bound]).

    Used for hot keys in the serving workload, sampled per time
    window.  The timeline's hot miss sites are not sketched: they are
    the runtime profile's exact per-site miss counts, listed in
    [snapshot]'s order and merged with [merge_snapshots], so they stay
    exact however many sites miss.  Deterministic by
    construction — eviction ties break on the key — and host-side
    only: touching a sketch never advances a simulated clock. *)

type t

val create : k:int -> t
(** Raises [Invalid_argument] when [k < 1]. *)

val touch : ?weight:int64 -> t -> string -> unit
(** Add [weight] (default 1; non-positive weights are ignored)
    occurrences of [key]. *)

val total : t -> int64
(** Total weight ever touched (since the last [reset]). *)

val error_bound : t -> int64
(** Max overestimation of any reported count: [total / k] once the
    monitored set is full, [0] before (all counts exact). *)

val top : t -> (string * int64 * int64) list
(** Monitored entries as [(key, count, err)], count-descending (ties
    key-ascending).  [count - err] is a guaranteed lower bound on the
    true frequency. *)

val snapshot : t -> (string * int64) list
(** [top] without the error column — the exchange format for
    per-window sampling and merging. *)

val merge_snapshots :
  k:int -> (string * int64) list -> (string * int64) list ->
  (string * int64) list
(** Sum counts per key across two snapshots and keep the heaviest [k]
    (the window-merge rule of the serving timeline's ring). *)

val reset : t -> unit
