(** Windowed time-series over the simulated clock.

    Fixed-interval windows record counter deltas, gauge samples,
    sparse log-bucket latency histograms, and named top-K snapshots.
    The store is passive and host-side: a sampler task that owns the
    simulated clock calls [roll] at each boundary; nothing here reads
    wall time or advances simulated time, so instrumented runs are
    byte-identical to uninstrumented ones.

    Closed windows live in a bounded ring: when a close would exceed
    the cap, adjacent pairs merge oldest-first (counters add, gauges
    combine, histogram buckets add, top-K snapshots merge via
    [Sketch.merge_snapshots]), halving the resolution while still
    covering the whole run.  Window spans add under merging, so each
    snapshot self-describes its coverage.  All of it is deterministic:
    ring contents are a pure function of the update/roll sequence. *)

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 256, min 2) bounds the closed-window ring.  Merged
    top-K snapshots keep the heaviest 8 entries per name. *)

val add : t -> string -> int64 -> unit
(** Add a (possibly negative) delta to a named counter in the current
    window. *)

val sample : t -> string -> float -> unit
(** Record a gauge sample (mean/max/last per window). *)

val observe : t -> string -> float -> unit
(** Record a latency (ns) into the window's sparse histogram, bucketed
    on [Metrics.bucket_of]'s quarter-octave scale. *)

val set_top : t -> string -> (string * int64) list -> unit
(** Install a named top-K snapshot (replaces any prior one this
    window). *)

val roll : t -> now_ns:float -> unit
(** Close the current window at [now_ns] and open the next one
    starting there. *)

val finish : t -> now_ns:float -> unit
(** Close the trailing partial window — dropped instead if it recorded
    nothing (the sampler may park one boundary past the last event). *)

val merges : t -> int
(** Pairwise-merge passes performed so far (0 = full resolution). *)

val nwindows : t -> int

(** {1 Export} *)

type gauge_stat = {
  g_count : int;
  g_mean : float;
  g_max : float;
  g_last : float;  (** the latest sample in the window *)
}

type hist_stat = {
  h_count : int;
  h_max_ns : float;
  h_p50_ns : float;  (** upper edge of the bucket holding the rank *)
  h_p99_ns : float;
}

type snapshot = {
  s_start_ns : float;
  s_span_ns : float;  (** spans add under merging *)
  s_counters : (string * int64) list;  (** name-sorted, as are all lists *)
  s_gauges : (string * gauge_stat) list;
  s_hists : (string * hist_stat) list;
  s_tops : (string * (string * int64) list) list;
}

val snapshots : t -> snapshot list
(** Closed windows, oldest first.  Percentiles are conservative: the
    upper edge of the quarter-octave bucket containing the rank,
    clamped to the exact observed max. *)
