(** Critical-path analysis over causal span trees.

    Reconstructs spans from the trace sink's async Begin/End events,
    validates the schema (b/e pairing, parent containment, flow
    referential integrity), and decomposes each tail exemplar's
    end-to-end latency into cause segments
    (queue/wire/retry/fill/recovery/local) by self-time in the
    attribution ledger's 2^-16 ns fixed point.  Self-times telescope,
    so a decomposition's segments sum to the root span's duration
    {e exactly} (int64 equality, not within-epsilon). *)

val validate : Trace.event list -> string list
(** Schema errors (empty = well-formed): every end matches a begin of
    the same span and trace and does not precede it, every begin ends,
    nonzero parents exist in the same trace and contain their children,
    and every flow start/end pair resolves to an emitted span. *)

val report : Metrics.t -> Trace.event list -> Json.t
(** [{dropped_events, schema_errors, exemplars: [{hist, value_ns, seq,
    critical_path}]}], one exemplar per traced exemplar of every
    histogram in the registry (untraced exemplars and traces whose
    spans were dropped are skipped).  [critical_path] decomposes the
    exemplar trace's root — its first-minted parentless span, the
    originating deref/fault rather than any later flow-linked child —
    as [{trace, root, root_name, root_lane, spans, total_ns, total_fp,
    segments_ns, segments_fp}]: every segment (queue, wire, retry,
    fill, recovery, local) once, the [_fp] values in 2^-16 ns units
    summing exactly to [total_fp].  [dropped_events] is the sink's drop
    counter: a capped buffer truncates span groups, so [schema_errors]
    is only conclusive when it is zero. *)

val folded : Metrics.t -> Trace.event list -> string
(** Flamegraph-style lines [hist;root_name;segment <fp>], one per
    nonzero segment; an exemplar's lines sum exactly to its root
    duration in fp units. *)
