(** The memory-system interface executed programs run against.

    The interpreter ([Mira_interp.Machine]) is generic over this record:
    Mira's section-based runtime ([Runtime]), the native baseline, and
    the FastSwap / Leap / AIFM baselines ([Mira_baselines]) all provide
    one.  Every call both moves real data and advances the calling
    thread's simulated clock according to the cost model. *)

type space =
  | Local  (** local DRAM: stack allocations, or everything for native *)
  | Far  (** far-memory address space, cached by the local runtime *)

type ptr = { space : space; addr : int; site : int }
(** [site] is the allocation site the pointed-to object came from
    (-1 when unknown); runtimes use it to route accesses to cache
    sections, mirroring the paper's section-id-carrying pointers. *)

type t = {
  name : string;
  alloc : tid:int -> site:int -> bytes:int -> heap:bool -> ptr;
  free : tid:int -> ptr:ptr -> unit;
  load : tid:int -> ptr:ptr -> len:int -> native:bool -> int64;
      (** [native] = the compiler proved residency (§4.4). *)
  store : tid:int -> ptr:ptr -> len:int -> native:bool -> value:int64 -> unit;
  prefetch : tid:int -> ptr:ptr -> len:int -> unit;
  flush_evict : tid:int -> ptr:ptr -> len:int -> unit;
  evict_site : tid:int -> site:int -> unit;
  flush_sites : tid:int -> sites:int list -> unit;
      (** Synchronous write-back of all cached data of the given sites
          (executed before an offloaded call). *)
  discard_sites : tid:int -> sites:int list -> unit;
      (** Invalidate cached data of the given sites without write-back
          (executed after an offloaded call mutated far memory). *)
  clock : tid:int -> Mira_sim.Clock.t;
      (** The thread's clock: the same object on every call, also after
          [reset_timing], so callers may keep it. *)
  op_cost : tid:int -> float -> unit;
      (** Charge compute time: advance [clock ~tid] by exactly [ns], or
          by [ns *. remote_compute_slowdown] between [offload_begin] and
          [offload_end] on systems that model offload.  The interpreter
          advances the clock itself outside offload. *)
  enter : tid:int -> string -> unit;  (** profiling: function entry *)
  exit_ : tid:int -> string -> unit;
  offload_begin : tid:int -> unit;
      (** Switch the thread to far-node execution: far accesses become
          node-local, compute slows down. *)
  offload_end : tid:int -> unit;
  set_nthreads : int -> unit;
      (** Announce the thread count of the next parallel region (lets
          runtimes model lock contention and split per-thread sections). *)
  profile : Profile.t;
  net : Mira_sim.Net.t;
  attribution : Mira_telemetry.Attribution.t;
      (** The stall-attribution ledger for this memory system; the
          interpreter charges offload RPC waits into it, the runtime
          everything else.  Baselines carry their own (mostly idle)
          ledger. *)
  metadata_bytes : unit -> int;
  reset_timing : unit -> unit;
      (** Zero clocks, network and cache statistics — keep data (used to
          exclude initialization from measurements). *)
  elapsed : unit -> float;
      (** Max over all thread clocks (total simulated runtime so far). *)
}
