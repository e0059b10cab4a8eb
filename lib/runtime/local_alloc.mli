(** Local-node allocator for far-memory addresses (§5.2.1).

    Works like a user-level malloc: it buffers address ranges obtained
    in large chunks from the far node's [Mira_sim.Remote_alloc] and
    serves [remotable.alloc] from the buffer, so most allocations need
    no network round trip.  The number of refills is observable (each
    refill costs one RPC to the far node, charged by the runtime). *)

type t

val create : Mira_sim.Remote_alloc.t -> chunk:int -> t
(** [chunk] is the minimum range requested from the remote allocator. *)

val alloc : t -> int -> int * bool
(** [alloc t len] returns an 8-byte aligned far address and whether a
    remote refill was needed (so the caller can charge the RPC). *)

val free : t -> addr:int -> len:int -> unit
(** Return a range to the local buffer. *)

val refills : t -> int
