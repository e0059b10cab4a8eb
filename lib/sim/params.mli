(** Cost model for the simulated far-memory environment.

    Every simulated nanosecond in the repository comes from one of the
    fields below.  The defaults approximate the paper's testbed: two
    Xeon nodes connected by 50 Gbps InfiniBand (FDR CX-3), a Linux swap
    fault path of a few microseconds, and an ARM-class far-memory
    processor.  All figure harnesses may override individual fields;
    EXPERIMENTS.md records the values actually used. *)

type t = {
  native_op_ns : float;  (** cost of one IR op executed natively *)
  native_mem_ns : float;  (** native (local-DRAM) memory access *)
  hit_direct_ns : float;  (** cache-section hit overhead, direct-mapped *)
  hit_set_ns : float;  (** hit overhead, set-associative *)
  hit_full_ns : float;  (** hit overhead, fully-associative *)
  one_sided_rtt_ns : float;  (** one-sided RDMA round-trip latency *)
  two_sided_rtt_ns : float;  (** two-sided (RPC-style) round-trip latency *)
  bandwidth_bytes_per_ns : float;  (** link bandwidth (6.25 = 50 Gbps) *)
  msg_cpu_ns : float;  (** local CPU cost to post/process one blocking message *)
  async_post_ns : float;  (** CPU cost to post one asynchronous message
                              (prefetch/write-back); cheaper than
                              [msg_cpu_ns] because the runtime batches
                              doorbells for async work (§4.5) *)
  remote_copy_ns_per_byte : float;  (** far-node copy cost for two-sided msgs *)
  page_fault_ns : float;  (** swap fault handling cost excluding transfer *)
  page_size : int;  (** swap page size in bytes *)
  aifm_deref_ns : float;  (** AIFM per-dereference runtime cost (hit) *)
  aifm_elem_meta_bytes : int;  (** AIFM metadata per array element *)
  aifm_obj_meta_bytes : int;  (** AIFM metadata per remotable object *)
  remote_compute_slowdown : float;  (** far-node CPU slowdown factor *)
  rpc_overhead_ns : float;  (** fixed cost of an offload RPC *)
  evict_check_ns : float;  (** cost to test/maintain eviction metadata *)
  prof_event_ns : float;  (** cost of one instrumented profiling event *)
  swap_lock_ns : float;  (** per-contending-thread swap-lock serialization *)
}

val default : t
(** The defaults documented in DESIGN.md §5. *)
