(** FastSwap baseline (Amaro et al., EuroSys'20).

    An optimized kernel swap system for far memory: everything is paged
    through the 4 KB swap cache, with the runtime's own readahead (each
    fault also fetches the 7 pages after it: a sliding window, not an
    aligned cluster) and a global LRU.
    Page-table/swap-lock serialization across threads is modelled with
    an extra per-fault cost proportional to the thread count, which is
    the scalability bottleneck the paper's Figures 24/25 exercise. *)

val create :
  ?params:Mira_sim.Params.t -> local_budget:int -> far_capacity:int -> unit ->
  Mira_runtime.Memsys.t
