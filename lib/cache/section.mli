(** One configurable cache section (§4.2-§4.5 of the paper).

    A section caches line-sized ranges of far memory in local DRAM.
    Its configuration — line size, capacity, structure, communication
    side, transferred payload (selective transmission), and the
    metadata-free mode — is produced by Mira's analysis/profiling
    pipeline; baselines use fixed configurations.

    Sections move real bytes between the [Far_store] and one packed
    local buffer of [slot_bytes]-budgeted slots, so system-wide data
    correctness is testable.  All timing goes through the caller's
    [Clock]; misses block on the simulated network, prefetched lines
    carry a [ready_at] and late accesses stall until the data has
    "arrived". *)

type structure = Direct | Set_assoc of int | Full_assoc
(** Where a line may live, and so how a victim is chosen.  [Direct]: one
    slot per line, which the new line evicts.  [Set_assoc k]: any of its
    set's [k] slots; the victim is an empty slot, else a hinted-evictable
    one, else the least recently used.  [Full_assoc]: any slot; the
    victim is a hinted-evictable slot if there is one.  Otherwise CLOCK
    picks a candidate, skipping the {e probationary} slot, which the
    latest demand miss filled (a prefetched line is never probationary;
    a discarded or hinted slot stops being so).  The probationary line
    is evicted instead of the candidate only when its access count is
    strictly lower; if it stays, it is an ordinary line from then on.
    A fully associative section counts the checked accesses to every
    line it has served, cached or not.  The first victim choice after
    every [10 * slots * payload / 8] accesses (ten capacities in 8-byte
    words) halves all counts and drops the uncached lines' that reach
    zero. *)

type config = {
  sec_id : int;
  sec_name : string;
  line : int;  (** line size in bytes, multiple of 8 *)
  size : int;  (** capacity in bytes (>= line), spent in [slot_bytes] units *)
  structure : structure;
  side : Mira_sim.Net.side;
  payload : (int * int) list option;
      (** selective transmission: the [(offset, len)] extents within a
          line that cross the wire, ascending and coalesced (as
          [Mira_util.Misc.merge_extents] leaves them).  Fills,
          prefetches and writebacks move exactly these bytes, a slot
          stores only them (packed), and a load or store outside them,
          or straddling two, fails an assertion.  [None] = whole line
          (one-sided needs whole) *)
  no_meta : bool;  (** compiler fully controls the lifetime: hits cost a
                       native access, no per-line runtime metadata *)
  write_no_fetch : bool;  (** write-only pattern: store misses allocate
                              without fetching the old line contents *)
}

val config_default : sec_id:int -> name:string -> line:int -> size:int -> config
(** Fully-associative (CLOCK with frequency admission, see
    [structure]), one-sided, whole-line payload, all optimizations
    off. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable late_prefetch : int;  (** hits that stalled on an in-flight line *)
  mutable evictions : int;
  mutable hinted_evictions : int;  (** victims chosen via eviction hints *)
  mutable admit_rejects : int;
      (** fully associative: evictions of the probationary line in place
          of CLOCK's candidate, which had the higher access count *)
  mutable writebacks : int;
  mutable native_misses : int;
      (** native accesses that found their line absent (a residency
          proof that failed at run time; served by the checked path) *)
  mutable hit_ns : float;  (** runtime overhead spent on the hit path *)
  mutable miss_ns : float;  (** blocking time spent on misses *)
  mutable stall_ns : float;  (** time waiting for in-flight prefetches *)
  mutable bytes_fetched : int;  (** fill and prefetch payload bytes *)
  mutable bytes_written : int;
      (** writeback payload bytes to the data node (parity and copy
          fan-out is [replication.bytes]) *)
  lat_fetch : Mira_telemetry.Metrics.hist;
      (** per-demand-miss blocking latency distribution *)
}

val slot_bytes : config -> int
(** What one cached line costs the section's capacity: [line] for a
    whole-line section; for a payload section its extents' bytes plus
    the per-slot metadata [metadata_bytes] counts (24, 32 or 48 B for
    direct, set-associative and fully-associative, 0 in [no_meta]
    mode).  A section of [size] S holds [S / slot_bytes] slots (whole
    sets, at least one line or set). *)

val resident_section : config -> bool
(** A resident section: [no_meta] on a [Set_assoc] structure.  The controller sizes one to hold every line of its
    objects; the runtime fills it when an object is allocated, eviction
    hints skip it, and its accesses cost a native access.  A line that
    is absent anyway (after [discard_range]) is fetched as a charged
    miss. *)

type t

val create : Mira_sim.Net.t -> Mira_sim.Cluster.t -> config -> t
val config : t -> config
val stats : t -> stats
val reset_stats : t -> unit

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export this section's statistics under [section.<name>.*]. *)

val set_attribution : t -> Mira_telemetry.Attribution.t -> unit
(** Route this section's stalls (demand misses, late prefetches,
    synchronous writeback backpressure) into the given ledger, tagged
    with the section name.  Off (no charges) until set. *)

val metadata_bytes : t -> int
(** Local-memory metadata footprint: [slot_bytes]' per-slot metadata
    (0 in [no_meta] mode), plus 16 B for each entry of a fully
    associative section's access counts at their high-water mark.  The
    counts are reported only: they do not reduce the slots that
    [slot_bytes] budgets. *)

val access :
  t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> native:bool -> write:bool ->
  int64 -> int64
(** Read [len] (1..8) bytes at far address [addr], or with [write] store
    the value given (a store returns 0L); the span must not straddle a
    line boundary.  Advances the clock by lookup/miss/stall costs.  A
    [native] access is compiler-proved resident: native cost, no lookup;
    it falls back to the full path if the line is (unexpectedly)
    absent, so data is always correct even if the proof was wrong. *)

val load : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64
(** A checked, non-native read. *)

val store : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> int64 -> unit

val prefetch : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
(** Asynchronously fetch all lines covering [addr, addr+len); only the
    message-posting CPU cost hits the clock. *)

val flush_evict : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
(** Eviction hint: asynchronously write back covered dirty lines and
    mark them evictable.  A no-op on a resident section. *)

val flush_all : t -> clock:Mira_sim.Clock.t -> unit
(** Failover recovery: asynchronously re-issue writebacks for all
    still-dirty lines without evicting anything, so the new primary
    receives every byte the crashed node lost. *)

val flush_range : t -> clock:Mira_sim.Clock.t -> addr:int -> len:int -> unit
(** Synchronous write-back (without eviction) of covered dirty lines;
    used before offloaded calls so the far node sees current data. *)

val discard_range : t -> addr:int -> len:int -> unit
(** Drop covered lines {e without} writing them back — used after an
    offloaded function mutated far memory, so stale lines must not
    overwrite it.  Callers flush first ([flush_range]). *)

val resident : t -> addr:int -> bool
(** True if the line covering [addr] is present (testing hook). *)
