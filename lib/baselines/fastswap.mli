(** FastSwap baseline (Amaro et al., EuroSys'20).

    An optimized kernel swap system for far memory: everything is paged
    through the 4 KB swap cache, with Linux-style cluster readahead
    (fetch the next pages of the faulting 8-page cluster: the runtime's
    own swap readahead) and a global LRU.
    Page-table/swap-lock serialization across threads is modelled with
    an extra per-fault cost proportional to the thread count, which is
    the scalability bottleneck the paper's Figures 24/25 exercise. *)

val create :
  ?params:Mira_sim.Params.t -> local_budget:int -> far_capacity:int -> unit ->
  Mira_runtime.Memsys.t
