(** Critical-path analysis over causal span trees.

    Reconstructs spans from the trace sink's async Begin/End events,
    validates the schema (b/e pairing, parent containment, flow
    referential integrity), and decomposes each tail exemplar's
    end-to-end latency into cause segments
    (queue/wire/retry/fill/recovery/local) by self-time in the
    attribution ledger's 2^-16 ns fixed point.  Self-times telescope,
    so a decomposition's segments sum to the root span's duration
    {e exactly} (int64 equality, not within-epsilon). *)

type span = {
  s_id : int;
  s_trace : int;
  s_parent : int;  (** 0 = root or flow-linked *)
  s_name : string;
  s_cat : string;
  s_lane : string;
  s_begin_ns : float;
  s_end_ns : float;
  s_args : (string * Json.t) list;  (** begin-side args *)
}

val validate : Trace.event list -> string list
(** Schema errors (empty = well-formed): every end matches a begin of
    the same span and trace and does not precede it, every begin ends,
    nonzero parents exist in the same trace and contain their children,
    and every flow start/end pair resolves to an emitted span. *)

type segment = Queue | Wire | Retry | Fill | Recovery | Local

val segment_name : segment -> string
val all_segments : segment list

type decomposition = {
  d_trace : int;
  d_root : span;
  d_total_fp : int64;  (** root duration, 2^-16 ns units *)
  d_segments : (segment * int64) list;
      (** every segment once, fp units; sums exactly to [d_total_fp] *)
  d_spans : int;  (** spans walked in the containment tree *)
}

val analyze : Trace.event list -> trace:int -> decomposition option
(** Decompose [trace]'s root over the spans reconstructed from the
    events: the first-minted parentless span of the trace (the
    originating deref/fault rather than any later flow-linked child).
    [None] when the trace has no completed root span. *)

type exemplar_path = {
  p_hist : string;
  p_exemplar : Metrics.exemplar;
  p_decomp : decomposition;
}

val paths : Metrics.t -> Trace.event list -> exemplar_path list
(** Decompositions for every traced exemplar of every histogram in the
    registry; untraced exemplars and traces whose spans were dropped
    are skipped. *)

val report : Metrics.t -> Trace.event list -> Json.t
(** [{dropped_events, schema_errors, exemplars: [{hist, value_ns, seq,
    critical_path}]}].  [dropped_events] is the sink's drop counter: a
    capped buffer truncates span groups, so [schema_errors] is only
    conclusive when it is zero. *)

val folded : Metrics.t -> Trace.event list -> string
(** Flamegraph-style lines [hist;root_name;segment <fp>], one per
    nonzero segment; an exemplar's lines sum exactly to its root
    duration in fp units. *)
