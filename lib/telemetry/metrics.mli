(** Metric types for the telemetry subsystem: counters, gauges, and
    log-scale latency histograms, plus a named registry to export them.

    Histograms are the always-on latency recorders embedded in
    [Mira_sim.Net] and the cache sections: a fixed array of
    exponentially spaced buckets (quarter-octave resolution, so
    percentile estimates are within ~19% of the true value) alongside a
    Welford accumulator ([Mira_util.Stats.online]) for exact count /
    mean / stddev and exact min / max.  Observing a sample is a handful
    of float operations on the host — it never touches the simulated
    clock, so enabling telemetry cannot perturb simulated results.

    Each histogram also keeps a small tail-exemplar reservoir: the
    slowest [exemplar_cap] observations with the trace id active when
    they were recorded, so a p99/p999 number can be chased back to a
    concrete causal trace (see [Trace] and [Critical_path]).

    The registry is pull-model: components keep their own mutable
    stats and [publish] them under hierarchical dotted names
    ([net.bytes_demand], [section.node.hits], ...) when a report is
    requested. *)

type hist

val bucket_of : float -> int
(** Quarter-octave bucket index for a sample: bucket [i] covers
    [[2^(i/4), 2^((i+1)/4))] ns, clamped to the bucket range: exactly
    [int_of_float (Float.log2 v *. 4.0)], clamped, without calling
    log2 for values in [[1, 2^44)].  Shared
    by the serving timeline's sparse per-window histograms
    ([Kv_serving.Timeline]) so window percentiles use the same scale. *)

val bucket_hi : int -> float
(** Upper edge of bucket [i] (the lower edge of bucket [i+1]). *)

type exemplar = {
  ex_value_ns : float;
  ex_trace : int;  (** trace id carried by the observation; 0 = untraced *)
  ex_seq : int;  (** 1-based arrival index within this histogram *)
}

val exemplar_cap : int
(** Reservoir size: the slowest-N observations are retained. *)

val hist_create : unit -> hist

val hist_observe : ?trace:int -> hist -> float -> unit
(** Record a sample (ns).  Non-positive samples land in the lowest
    bucket; min/max/mean remain exact.  [?trace] tags the sample with
    the trace id of the access that produced it (default 0 =
    untraced); the reservoir keeps the slowest [exemplar_cap] samples,
    breaking value ties toward the earliest arrival so contents are
    deterministic. *)

val hist_exemplars : hist -> exemplar list
(** Slowest first; at most [exemplar_cap]. *)

val hist_count : hist -> int
val hist_mean : hist -> float
val hist_min : hist -> float  (** 0 when empty *)

val hist_max : hist -> float  (** 0 when empty *)

val hist_percentile : hist -> float -> float
(** [hist_percentile h p] with [p] in [0,100]; bucket-interpolated,
    clamped to the exact observed min/max.  0 on an empty histogram. *)

val hist_reset : hist -> unit
(** Clears buckets, moments, and the exemplar reservoir. *)

val hist_to_json : hist -> Json.t
(** [{count, mean_ns, stddev_ns, min_ns, max_ns, p50_ns, p95_ns,
    p99_ns, p999_ns}]; an ["exemplars"] list ([{value_ns, trace,
    seq}]) is appended only when at least one exemplar carries a
    nonzero trace id, so untraced runs keep the historical shape. *)

(** {1 Registry} *)

type value = Counter of int | Gauge of float | Hist of hist
type t

val create : unit -> t

val set_counter : t -> string -> int -> unit
(** Publish a monotonic count under [name].  Names are claimed once
    per registry: publishing the same dotted name twice raises
    [Invalid_argument] — a second publisher silently shadowing the
    first is always a wiring bug.  (Applies to all [set_*].) *)

val set_gauge : t -> string -> float -> unit
val set_hist : t -> string -> hist -> unit

val find : t -> string -> value option
val names : t -> string list
(** Publication order. *)

val to_json : t -> Json.t
(** One object, publication order; histograms expand to their summary
    object. *)
