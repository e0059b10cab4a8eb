(** Adaptive prefetch insertion (§4.5).

    Three program-guided prefetch shapes, all built as explicit rmem
    ops with bounds guards ([Loop_hints] places the loop ones):

    - {b sequential/strided}: in a loop indexing a sectioned site with
      the induction variable, prefetch the line that iteration
      [i + D] will touch, where [D] is chosen so the fetch completes
      one network round trip before it is needed (estimated from the
      loop body's compute cost and the measured RTT);
    - {b indirect} ([B[A[i]]]): load [A[i+D]] (itself sequential, hence
      cheap) and prefetch [B] at that index — the paper's introduction
      example, impossible for history-based prefetchers;
    - {b pointer chase}: after loading a pointer field from a sectioned
      object, immediately prefetch its target (one-step lookahead used
      for MCF-style traversals).

    Only accesses already converted to the rmem dialect (selected
    sites with a cache section) are prefetched. *)

type ctx
(** A function's prefetch context: the program's site facts, the cost
    parameters, the section lines and a register supply. *)

val context :
  Mira_analysis.Remotable_flow.t ->
  params:Mira_sim.Params.t ->
  line_of:(int -> int option) ->
  hint_line_of:(int -> int option) ->
  fresh:(unit -> Mira_mir.Ir.reg) ->
  ctx
(** [line_of site] is the section line size for sectioned sites, and
    [hint_line_of] the same for the sites a prefetch may target (an
    indirect prefetch's index stream need only be sectioned). *)

val loop_snippets :
  ctx ->
  Mira_analysis.Pattern.loop_info ->
  ivs:(int * Mira_mir.Ir.reg) list ->
  lo:Mira_mir.Ir.operand ->
  hi:Mira_mir.Ir.operand ->
  step:Mira_mir.Ir.operand ->
  skip:(Mira_analysis.Pattern.simple_gep -> bool) ->
  defs:(Mira_mir.Ir.reg, unit) Hashtbl.t ->
  Mira_mir.Ir.block list * Mira_mir.Ir.block
(** For an innermost loop (its induction variables by depth in [ivs],
    its own included, and the registers its body defines in [defs]):
    the preambles to emit before the loop and the snippets to put at
    the start of its body.  Accesses whose gep satisfies [skip] get
    neither. *)

val chase :
  Mira_analysis.Remotable_flow.t ->
  Mira_mir.Ir.program -> line_of:(int -> int option) -> Mira_mir.Ir.program
(** Pointer chase: after each load of a remote pointer, prefetch one
    line of its target's section. *)

val distance_iters :
  params:Mira_sim.Params.t -> body_ops:int -> int
(** Iterations of lookahead needed to hide one RTT (exposed for tests). *)

val ahead_offset :
  dist:int -> step:int64 -> Mira_analysis.Pattern.simple_gep -> int64
(** Index lookahead for [dist] iterations of [step], plus the access's
    constant offset from the induction variable. *)

val sequential_preamble :
  fresh:(unit -> Mira_mir.Ir.reg) ->
  lo:Mira_mir.Ir.operand ->
  dist:int ->
  g:Mira_analysis.Pattern.simple_gep ->
  line:int ->
  Mira_mir.Ir.block
(** Before a loop: prefetch the first [dist] iterations' window of a
    stream starting at element [lo]. *)
