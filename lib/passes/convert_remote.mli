(** Conversion to remote operations (§4.4, §5.2.1).

    Rewrites memory operations whose base object belongs to a selected
    allocation site into the rmem dialect: their [access_meta] gets
    [am_remote = true] and the resolved [am_site], which routes them to
    the site's cache section at run time.  Unselected (or unresolvable)
    accesses keep the default swap path — the analysis trades
    completeness for soundness. *)

val run :
  Mira_analysis.Remotable_flow.t -> Mira_mir.Ir.program -> selected:int list ->
  Mira_mir.Ir.program
(** The site facts are the program's ({!Mira_analysis.Remotable_flow.build}). *)
