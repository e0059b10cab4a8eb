(** Small block-level helpers shared by the rewriting passes. *)

val defined_regs : Mira_mir.Ir.block -> (Mira_mir.Ir.reg, unit) Hashtbl.t
(** All registers defined anywhere inside the block (deep). *)

val operand_defined_in :
  (Mira_mir.Ir.reg, unit) Hashtbl.t -> Mira_mir.Ir.operand -> bool

val remote_meta : int -> Mira_mir.Ir.access_meta
(** Metadata of a pass-inserted access (prefetch, flush) to [site]'s
    remote object. *)

type hint =
  | Prefetch_ahead of int64  (** prefetch element [at + k] while it is below [bound] *)
  | Flush_behind of int  (** flush element [at - k] once it is at least [bound] *)

val guarded_hint :
  fresh:(unit -> Mira_mir.Ir.reg) ->
  hint ->
  at:Mira_mir.Ir.operand ->
  bound:Mira_mir.Ir.operand ->
  g:Mira_analysis.Pattern.simple_gep ->
  line:int ->
  Mira_mir.Ir.block
(** The bounds-checked [hint] on [line] bytes at element [d] of [g]'s
    object: [d = at + k; if d < bound { prefetch &g[d] }] ahead, and
    [d = at - k; if d >= bound { flush &g[d] }] behind.  It takes three
    fresh registers: [d], the compare, then the element pointer. *)
