(** The loop pass: places every per-loop far-memory hint, and
    strip-mines streaming loops so that each cache line costs one
    checked access, one prefetch and one flush-behind, and the elements
    inside it are native loads (§4.4-§4.5).

    Each innermost loop gets the {!Evict_hints} flush-behind ([~evict])
    and {!Prefetch_pass} prefetch ([~prefetch]) snippets for its
    accesses.  With [~native], an innermost [For] with a constant step,
    no call and no nested loop is also strip-mined when it reads a
    {e stream}: a sectioned object loaded at element [iv + c] through a
    loop-invariant base, with at least two iterations per section line.
    The loop becomes an outer loop over chunks of [k] iterations ([k]
    per line of its densest stream) around the original loop
    restricted to the chunk.  Each chunk first flushes behind each
    stream of a streaming site and prefetches ahead of each stream at
    {!Prefetch_pass.distance_iters}.  When a stream's loads are the
    body's only accesses to its site, the chunk then loads its first
    and last elements through the checked path: a chunk reads at most
    one line's worth of bytes, so those two lines are all it touches,
    and the stream's loads in the body become native.  A stream's
    sequential accesses get no per-iteration snippets; every other
    access keeps its snippets, guarded by the original loop bounds.
    After a loop whose flush-behind ran per chunk or behind a gate, one
    flush covers the last range behind it. *)

val run :
  Mira_analysis.Remotable_flow.t ->
  Mira_mir.Ir.program ->
  params:Mira_sim.Params.t ->
  line_of:(int -> int option) ->
  hint_line_of:(int -> int option) ->
  prefetch:bool ->
  evict:bool ->
  native:bool ->
  Mira_mir.Ir.program
(** [line_of site] is the section line size for sectioned sites;
    streams are found with it.  [hint_line_of] answers the same but
    [None] for the sites no prefetch or flush may target. *)
