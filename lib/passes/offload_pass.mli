(** Function offloading (§4.8): marks the functions chosen by
    [Mira_analysis.Offload_analysis] as offloaded and records the
    allocation sites the caller must flush before / invalidate after
    the RPC. *)

val run :
  Mira_mir.Ir.program ->
  ?explicit:string list ->
  params:Mira_sim.Params.t ->
  unit ->
  Mira_mir.Ir.program
(** With [explicit], offload exactly those functions (they must be
    remotable); otherwise offload every function whose analysis
    benefit is positive. *)
