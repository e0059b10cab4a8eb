(** GPT-2 inference (transformer blocks with a KV cache), scaled down.

    The paper runs GPT-2 on ONNX; the behaviour its evaluation hinges
    on is {e layer-by-layer lifetime}: each layer's weight matrices
    (QKV, projection, two feed-forward matrices) and KV-cache slab are
    touched exactly during that layer's computation and never again in
    the forward pass, so Mira ends their sections as layers finish and
    even a sliver of local memory sustains full throughput (Figure 17).

    We build the forward pass with the layer loop unrolled at
    construction time so every layer's weights are distinct allocation
    sites (distinct lifetimes), with real matmuls/attention over [f64]
    at reduced dimensions.  Weight reads are large and sequential
    (streaming sections, deep prefetch); activations are small and hot.

    The attention loop is a parallel loop over query rows when
    [threads] parallelism is requested (read-only sharing of weights
    and KV — the per-thread private sections of §4.6, Figure 24). *)

type config = {
  layers : int;
  d_model : int;
  seq : int;
  seed : int;
  parallel : bool;  (** parallel loops over output rows *)
}

val config_default : config
(** 4 layers, d=32, seq=16 — small enough for the simulated matmuls,
    big enough that per-layer weights dominate memory. *)

val build : config -> Mira_mir.Ir.program
val far_bytes : config -> int

val layer_weight_bytes : config -> int
(** Weights of one layer (Figure 17's x-axis is relative to this). *)

val aifm_gran : Mira_mir.Ir.program -> int -> int

val params : Mira_sim.Params.t
(** The vectorized-compute cost model GPT-2 runs under (native ops at
    0.05 ns, native memory at 0.3 ns): an interpreter executes FLOPs
    far slower relative to the network than SIMD inference does, which
    would make the model look compute-bound (DESIGN.md §8 item 8). *)
