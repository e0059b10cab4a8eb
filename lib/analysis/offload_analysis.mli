(** Function-offloading selection (§4.8).

    Scores each remotable function by its computation weight versus the
    network traffic its far-memory accesses would generate if executed
    on the compute node.  Offloading wins when the function is
    communication-bound: the far accesses it performs locally-at-the-
    far-node outweigh the slower far-node CPU plus the RPC overhead. *)

type score = {
  o_name : string;
  o_compute_weight : float;  (** dynamic-op estimate (trip-count weighted) *)
  o_far_accesses : float;  (** dynamic far-access estimate *)
  o_sites : int list;  (** sites touched (for the flush barrier) *)
  o_benefit_ns : float;  (** estimated saved ns per call; > 0 = offload *)
}

val analyze :
  Remotable_flow.t -> Mira_mir.Ir.program -> params:Mira_sim.Params.t -> score list
(** Scores for every remotable function, in definition order: the
    functions that touch only resolvable far objects and their own
    stack data, and call only remotable functions or intrinsics (the
    entry function never is).  Far accesses are assumed to miss the
    local cache half the time when not offloaded, and a loop without
    constant bounds to run 64 times. *)

val should_offload : score -> bool
