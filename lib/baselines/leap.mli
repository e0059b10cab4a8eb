(** Leap baseline (Al Maruf & Chowdhury, ATC'20).

    Linux swap plus majority-trend prefetching: a sliding window of
    recent fault page numbers votes (Boyer-Moore majority) on the
    dominant stride; when a trend exists, Leap prefetches along it with
    an adaptive window that grows on useful prefetches and shrinks on
    useless ones.  Like the paper's Leap, it captures one global trend
    and therefore mispredicts interleaved per-object patterns.

    Leap's data path is slightly slower than FastSwap's (the paper
    observes FastSwap's more efficient Linux implementation); this is
    modelled by a small extra per-fault cost. *)

val majority_delta : int list -> int option
(** Boyer-Moore majority vote over the successive deltas of a fault
    history (newest first); [None] when no stride wins a majority.
    Exposed for testing. *)

val create :
  ?params:Mira_sim.Params.t -> local_budget:int -> far_capacity:int -> unit ->
  Mira_runtime.Memsys.t
