(** The paper's running example (Figure 4): graph traversal.

    An edge array is scanned sequentially; each edge updates its source
    and destination entries in a node array, i.e. the node array is
    accessed indirectly through values read from the edge array —
    exactly the [B[A[i]]] pattern Mira's analysis-guided prefetching
    targets and history-based prefetchers cannot capture.

    Conventions shared by all workloads: the program's entry [main]
    initializes inputs and then calls the measured function [work];
    [main] returns an [i64] checksum so results can be compared across
    memory systems. *)

type config = {
  num_edges : int;
  num_nodes : int;
  seed : int;
  with_random_array : bool;
      (** add a third, uniformly-randomly accessed array (the §4.3
          section-sizing study, Figures 11/12) *)
  random_array_elems : int;
  parallel : bool;  (** use a parallel edge loop (multithread studies) *)
}

val config_default : config
(** 100k edges (24 B each), 10k nodes (128 B each). *)

val edge_bytes : int
val node_bytes : int

val build : config -> Mira_mir.Ir.program

val far_bytes : config -> int
(** Total heap footprint (for local-memory-ratio sweeps). *)

val aifm_gran : Mira_mir.Ir.program -> int -> int
(** AIFM's per-object granularity: the element size, at least 128 B. *)
