(** Small block-level helpers shared by the rewriting passes. *)

val defined_regs : Mira_mir.Ir.block -> (Mira_mir.Ir.reg, unit) Hashtbl.t
(** All registers defined anywhere inside the block (deep). *)

val operand_defined_in :
  (Mira_mir.Ir.reg, unit) Hashtbl.t -> Mira_mir.Ir.operand -> bool

val remote_meta : int -> Mira_mir.Ir.access_meta
(** Metadata of a pass-inserted access (prefetch, flush) to [site]'s
    remote object. *)
