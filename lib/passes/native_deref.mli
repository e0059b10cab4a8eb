(** Dereference-to-native-load conversion (§4.4).

    Within one straight-line scope (a loop body or block), the second
    and later accesses to the {e same element} of a sectioned object
    (same base pointer, same index operand) are guaranteed to hit the
    line the first access brought in — provided the element fits in the
    section's line and no conflicting access intervenes.  Those
    accesses are marked [am_native]: the runtime skips the cache lookup
    entirely and performs a plain memory access.

    The run-time [load_native] path still falls back to a full lookup
    if the line is absent, so even a wrong proof cannot corrupt data —
    it only costs performance (see [Mira_cache.Section]). *)

val run :
  Mira_analysis.Remotable_flow.t ->
  Mira_mir.Ir.program ->
  line_of:(int -> int option) ->
  Mira_mir.Ir.program
