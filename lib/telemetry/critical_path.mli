(** Critical-path analysis over causal span trees.

    Reads the trace sink's whole spans ([Trace.spans ()]), validates
    their tree (unique ids, ordered ends, parent containment), and
    decomposes each tail exemplar's
    end-to-end latency into cause segments
    (queue/wire/retry/fill/recovery/local) by self-time in the
    attribution ledger's 2^-16 ns fixed point.  Self-times telescope,
    so a decomposition's segments sum to the root span's duration
    {e exactly} (int64 equality, not within-epsilon). *)

val validate : Trace.span list -> string list
(** Schema errors (empty = well-formed): no span id is recorded twice,
    no span ends before it begins, and nonzero parents exist in the
    same trace and contain their children. *)

val report : Metrics.t -> Trace.span list -> Json.t
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
    counter: a capped buffer keeps or drops spans whole, so a span's
    parent may be missing and [schema_errors] is only conclusive when
    it is zero. *)

val folded : Metrics.t -> Trace.span list -> string
(** Flamegraph-style lines [hist;root_name;segment <fp>], one per
    nonzero segment; an exemplar's lines sum exactly to its root
    duration in fp units. *)
