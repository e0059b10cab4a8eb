(** Function offloading (§4.8): marks the remotable functions, marks
    the ones chosen by [Mira_analysis.Offload_analysis] as offloaded,
    and records the allocation sites the caller must flush before /
    invalidate after the RPC. *)

val run :
  Mira_analysis.Remotable_flow.t ->
  Mira_mir.Ir.program -> params:Mira_sim.Params.t -> Mira_mir.Ir.program
(** Offload every remotable function whose analysis benefit is
    positive. *)
