(** Per-function register -> allocation-site resolution.

    Because the IR is statically single-assignment, each register has
    exactly one defining op, so a single pre-order walk resolves every
    pointer register to its base allocation site: [Alloc] introduces a
    site, [Gep]/[Mov] propagate it, and a [Load] of pointer type
    resolves through type-based aliasing ([Remotable_flow.site_of_ty]).
    Registers holding pointers loaded from memory are flagged "chased".

    This is the workhorse used by the conversion and optimization
    passes to decide which memory operations touch which objects. *)

type t

val build :
  ?param_sites:(Mira_mir.Ir.reg * int) list ->
  Mira_mir.Ir.program -> Mira_mir.Ir.func -> t
(** [param_sites] binds parameter registers to allocation sites
    (computed interprocedurally by [Mira_analysis.Remotable_flow]). *)

val site_of_operand : t -> Mira_mir.Ir.operand -> int

val gep_parts :
  t -> Mira_mir.Ir.reg ->
  (Mira_mir.Ir.operand * Mira_mir.Ir.operand * Mira_mir.Types.ty * int) option
(** For a register defined by [Gep]: (base, index, elem, field_off). *)
