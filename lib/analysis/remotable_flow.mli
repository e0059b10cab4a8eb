(** Remotable-object dataflow (§5.2.1): the site facts of a program.

    Type-based alias analysis: each allocation site declares an element
    type, so a pointer whose pointee type is allocated at exactly one
    heap site must point into that site's objects (the paper combines
    SSA-based forward dataflow with type-based aliasing; here the SSA
    part is {!regs}, which [Pattern] and the passes all read).
    Call-graph parameter bindings carry a caller's sites into its
    callees.

    One value holds every such fact of a program, built by one scan of
    its ops.  No pass adds an allocation, a call or a parameter, so the
    value built from a compile's input serves each of its passes; the
    registers a pass adds are resolved by {!regs} on the body it sees. *)

type t

val build : Mira_mir.Ir.program -> t

val heap_sites : t -> int list
(** Sites with a heap allocation, ascending: stack allocations are
    never remote targets. *)

val site_count : t -> int -> int64 option
(** The constant element count every allocation of the site uses, if
    there is one. *)

val site_of_ty : t -> Mira_mir.Types.ty -> int option
(** The unique heap allocation site with this element type, if any. *)

val param_sites : t -> string -> (Mira_mir.Ir.reg * int) list
(** A function's parameter registers bound to the site every call site
    passes (conflicting call sites bind [-1]). *)

val callees : t -> string -> string list
(** A function's direct callees, intrinsics included, sorted. *)

type regs
(** One function's register -> site resolution.  The IR is statically
    single-assignment, so one pre-order walk resolves every pointer
    register to its base allocation site: [Alloc] introduces a site,
    [Gep]/[Mov] propagate it, a parameter takes its binding, and a
    pointer [Load] or an unbound pointer parameter resolves through
    {!site_of_ty}. *)

val regs : t -> Mira_mir.Ir.func -> regs

val site_of_operand : regs -> Mira_mir.Ir.operand -> int
(** [-1] when unresolved. *)

val gep_parts :
  regs -> Mira_mir.Ir.reg ->
  (Mira_mir.Ir.operand * Mira_mir.Ir.operand * Mira_mir.Types.ty * int) option
(** For a register defined by [Gep]: (base, index, elem, field_off). *)
