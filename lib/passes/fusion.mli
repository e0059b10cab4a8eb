(** Data-access batching via loop fusion (§4.5).

    Adjacent loops with identical bounds whose bodies are independent
    (no site written by one and touched by the other, no calls or
    nested parallelism) are fused so that their far-memory accesses
    batch: one pass over the fused loop touches all arrays in the same
    window, turning k separate scans (each with its own cold misses)
    into one scan that fetches every array once — the paper's
    avg/min/max DataFrame example (Figure 23). *)

val run : Mira_analysis.Remotable_flow.t -> Mira_mir.Ir.program -> Mira_mir.Ir.program
