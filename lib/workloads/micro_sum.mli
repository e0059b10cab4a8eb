(** The paper's micro-benchmarks (§6.1, Figures 19/20): a simple loop
    summing a far-memory array, and a strided variant.  Used to isolate
    the runtime's per-access overhead from application behaviour. *)

type config = { elems : int; stride : int; seed : int }

val config_default : config
(** 200k 8-byte elements, stride 1. *)

val build : config -> Mira_mir.Ir.program
(** Raises [Invalid_argument] with the reason when [stride < 1]. *)

val far_bytes : config -> int
