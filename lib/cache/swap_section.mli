(** The generic page-granularity swap cache (§5.3).

    Backs everything Mira has not (yet) placed in a custom section, and
    serves as the whole-memory cache for the FastSwap and Leap
    baselines.  Pages are 4 KB (configurable), hits cost a native
    access (the page is MMU-mapped), faults pay the kernel fault path
    plus a page transfer, and eviction follows a global approximate LRU
    (CLOCK).  A pluggable readahead policy receives each faulting page
    number and names a window of pages to prefetch: the runtime's
    default, the 7 pages after the faulting one (a window that slides
    with the fault, not an aligned cluster), serves Mira's plain swap
    and FastSwap; Leap ([Mira_baselines.Leap]) follows the majority
    trend of recent faults.

    A configurable [extra_fault_ns] models cross-thread serialization
    on the kernel swap lock (used by the multithreading figures). *)

type config = {
  page : int;  (** page size in bytes *)
  capacity : int;  (** resident-set budget in bytes *)
}

type stats = {
  mutable hits : int;
  mutable faults : int;
  mutable readahead_pages : int;
  mutable late_readahead : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable fault_ns : float;
  mutable stall_ns : float;
  mutable bytes_fetched : int;
  lat_fault : Mira_telemetry.Metrics.hist;
      (** per-fault blocking latency distribution *)
}

type t

val create : Mira_sim.Net.t -> Mira_sim.Cluster.t -> config -> t
val stats : t -> stats
val reset_stats : t -> unit
val config : t -> config

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export the swap section's statistics under [swap.*]. *)

val set_attribution : t -> Mira_telemetry.Attribution.t -> unit
(** Route fault, late-readahead, and synchronous-writeback stalls into
    the given ledger under section ["swap"].  Off until set. *)

val set_readahead : t -> (int -> int * int) -> unit
(** Install a readahead policy: fault page [pno] -> [(stride, count)],
    the pages [pno + i * stride] for [i = 1 .. count] ([stride] nonzero
    when [count > 0]).  The default, [(1, 0)], reads nothing ahead. *)

val set_extra_fault_ns : t -> float -> unit
(** Extra serialization cost charged per fault (lock contention). *)

val resize : t -> capacity:int -> unit
(** Set the resident budget of a section that holds no page yet: the
    cache manager sizes the swap section once, when it sets the layout,
    before the runtime's first allocation.  Raises [Invalid_argument]
    when a page is resident. *)

val capacity_bytes : t -> int

val load : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64
val store : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64 -> unit

val prefetch_range : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
(** Prefetch the pages covering [addr, addr+len); with doorbell
    batching enabled they post as one coalesced message.  Pages past the
    end of far memory are skipped. *)

val evict_hint : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
(** Mark covered pages evict-first and write them back asynchronously. *)

val flush_range : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
(** Synchronous write-back of covered dirty pages (offload support). *)

val discard_range : t -> addr:int -> len:int -> unit
(** Drop covered pages without write-back (post-offload invalidation). *)

val flush_all : t -> clock:Mira_sim.Clock.t -> unit
(** Failover recovery: asynchronously re-issue writebacks for all
    still-dirty pages without evicting them. *)

val resident : t -> addr:int -> bool
val metadata_bytes : t -> int
