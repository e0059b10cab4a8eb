(** The loop pass: places every per-loop far-memory hint, and
    strip-mines streaming loops so that each cache line costs one
    checked access, one prefetch and one flush-behind, and the elements
    inside it are native loads (§4.4-§4.5).  It reads the loops and
    their accesses from {!Mira_analysis.Pattern} and runs no induction
    analysis of its own. *)

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
(** Each innermost loop gets the {!Evict_hints} flush-behind
    ([~evict]) and {!Prefetch_pass} prefetch ([~prefetch]) snippets for
    its accesses.  [line_of site] is the section line size for
    sectioned sites; [hint_line_of] answers the same but [None] for the
    sites no prefetch or flush may target.

    With [~native], an innermost [For] (not a [ParFor]) with a constant
    positive step is also strip-mined around its {e streams}.  A site
    is a stream when its body has no call and no [While] and:
    - the site is sectioned, and has at least two iterations per line;
    - its loads in the body's own ops (not inside an [If]) that are
      marked remote, each through the very pointer of a gep in those
      ops ({!Mira_analysis.Pattern.access}'s [a_own]: no copied pointer,
      no gep of an enclosing loop), all read element [iv + c] of one
      base defined outside the loop, with one [c] (integer literals
      the body adds to [iv]) and one element type, each at a field
      that ends inside the element.
    The stream is {e exclusive} when those loads are all of the body's
    loads and stores of the site ({!Mira_analysis.Pattern.access}'s
    [a_site]), branches included.

    The loop becomes an outer loop over chunks of [k] iterations ([k]
    per line of its densest stream) around the original loop
    restricted to the chunk.  Each chunk first flushes behind each
    stream of a streaming site and prefetches ahead of each stream at
    {!Prefetch_pass.distance_iters}.  It then loads the first and last
    elements of each exclusive stream through the checked path: a
    chunk reads at most one line's worth of bytes, so those two lines
    are all it touches, and the stream's loads in the body become
    native.  A stream's sequential accesses get no per-iteration
    snippets; every other access keeps its snippets, guarded by the
    original loop bounds.  After a loop whose flush-behind ran per
    chunk or behind a gate, one flush covers the last range behind
    it. *)
