(** Eviction hints (§4.5) and lifetime-driven section endings.

    Two transformations:

    - {b streaming flush-behind}: in a loop walking a sectioned site
      sequentially, asynchronously flush the line [D] iterations behind
      the current position and mark it evictable — the data will not be
      touched again, so it becomes the preferred victim and its
      write-back happens off the critical path.  [Loop_hints] places
      it: once per line, either in a strip-mined loop's per-line step
      or behind a per-iteration gate;
    - {b lifetime endings}: after the last top-level loop that touches
      a site (per [Mira_analysis.Lifetime]), insert [EvictSite] so all
      of the site's cached data is released for other sections — the
      behaviour that lets GPT-2 run layer-by-layer in a sliver of local
      memory. *)

val loop_snippets :
  fresh:(unit -> Mira_mir.Ir.reg) ->
  line_of:(int -> int option) ->
  streaming:(int -> bool) ->
  Mira_analysis.Pattern.loop_info ->
  lo:Mira_mir.Ir.operand ->
  step:Mira_mir.Ir.operand ->
  last:Mira_mir.Ir.operand option ->
  skip:(Mira_analysis.Pattern.simple_gep -> bool) ->
  defs:(Mira_mir.Ir.reg, unit) Hashtbl.t ->
  Mira_mir.Ir.block * Mira_mir.Ir.block
(** For an innermost loop: flush-behind snippets for its sequential
    accesses to [streaming] sites, each gated to one iteration in the
    largest power of two at most the iterations per line, so every
    line is flushed; and, given the loop's last induction value
    [last], the ops to run after the loop that flush the lines behind
    it the gate left out.  Accesses whose gep satisfies [skip] get
    neither; [defs] holds the registers the loop body defines. *)

val end_lifetimes :
  Mira_analysis.Remotable_flow.t ->
  Mira_mir.Ir.program -> line_of:(int -> int option) -> Mira_mir.Ir.program
(** Insert the lifetime [EvictSite]s. *)

val behind_distance : line:int -> elem:int -> int
(** Iterations of lag before flushing (exposed for tests). *)

val streaming : Mira_analysis.Pattern.result -> int -> bool
(** Sites the analyzed function only reads or only writes: the ones a
    flush-behind pays off for. *)

val flush_tail :
  fresh:(unit -> Mira_mir.Ir.reg) ->
  at:Mira_mir.Ir.operand ->
  lo:Mira_mir.Ir.operand ->
  g:Mira_analysis.Pattern.simple_gep ->
  line:int ->
  Mira_mir.Ir.block
(** The flush of [line] bytes {!behind_distance} elements behind [at],
    when that index is at least [lo]: after a loop whose last induction
    value is [at], the last range a per-iteration flush would have
    reached. *)
