(** The compilation pipeline: applies the Mira passes in the order the
    controller's plan dictates.

    Order matters: fusion first (it changes loop structure the other
    passes analyze), then conversion to the rmem dialect, the loop
    hints (prefetch, flush-behind and, with [native], strip-mining of
    streaming loops: they need the rmem metas and section line sizes),
    pointer-chase prefetches and lifetime endings,
    dereference-to-native for repeated elements (it sees the final
    access sequence), offloading, and finally optional instrumentation
    for the next profiling run. *)

type plan = {
  selected : int list;  (** sites converted to remote (sectioned) *)
  lines : (int * int) list;  (** site -> section line size in bytes *)
  resident : int list;
      (** sites of resident sections: they get no prefetch,
          flush-behind or lifetime-end hint, but are strip-mined and
          dereferenced natively like any sectioned site *)
  fuse : bool;
  prefetch : bool;
  evict : bool;
  native : bool;
  offload : bool;
  instrument : bool;
}

val plan_default : plan
(** Everything off, nothing selected. *)

val plan_all : selected:int list -> lines:(int * int) list -> plan
(** All optimizations on, offloading included, no instrumentation. *)

val apply :
  Mira_mir.Ir.program -> plan -> params:Mira_sim.Params.t -> Mira_mir.Ir.program
(** The result is re-verified; raises [Failure] if a pass produced
    malformed IR (a pass bug, not a user error). *)
