(** The IR interpreter with simulated-time cost accounting.

    Executes a verified program against any [Mira_runtime.Memsys.t]
    (Mira's runtime or a baseline).  Every op advances the current
    thread's simulated clock; loads/stores move real data through the
    memory system; [ParFor] partitions iterations over the configured
    number of simulated threads with fork/join clock semantics;
    offloaded functions run in far-node mode behind an RPC.  Each
    function body is compiled to closures on its first call.

    The machine is deterministic given its seed (the [rand_int]
    intrinsic is the only source of randomness). *)

type t

val create :
  ?nthreads:int -> ?seed:int -> ?honor_offload:bool ->
  Mira_runtime.Memsys.t -> Mira_mir.Ir.program -> t
(** [honor_offload] (default true) lets benchmarks disable offloading
    for ablation without recompiling. *)

val run : t -> Value.t
(** Invoke the entry function with no arguments. *)

val ops_executed : t -> int
(** Dynamic op count since creation (sanity metric for tests). *)
