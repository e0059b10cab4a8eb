(** Many-tenant key-value serving workload (tail latency vs SLO).

    Unlike the MIR-program workloads ([Graph_traversal], [Dataframe],
    ...), which the interpreter executes single-tenant, this workload
    drives the section-based runtime directly: it spawns one task per
    tenant on the runtime's discrete-event scheduler
    ([Mira_sim.Sched]), so N independent serving loops interleave on
    simulated time and contend for the shared section cache, the net
    in-flight window, and the far cluster.

    Each tenant owns a private keyspace in far memory, a private cache
    section sized to [local_ratio] of its data, and an open-loop
    request generator: Poisson arrivals with mean [arrival_ns],
    Zipfian key popularity with exponent [zipf_s], a [get_fraction]
    get/put mix.  Request latency is measured from the {e arrival}
    time, so queueing delay when the tenant falls behind its arrival
    process counts against the SLO — the open-loop tail-latency
    methodology.

    Per tenant, the run reports p50/p99/p999/max latency against
    [slo_ns] and keeps a latency histogram whose tail exemplars carry
    trace ids when tracing is enabled; every request then renders as a
    span containing its cache/net child spans, so the critical-path
    analyzer decomposes tail requests out of the box.  Tenants appear
    in the flame stacks and the attribution ledger under their own
    function key ([kv_t<N>]).

    Determinism: all randomness flows from [seed] through per-tenant
    split [Mira_util.Prng] streams, and the scheduler interleaving is
    a pure function of clock movements — identical configs replay
    byte-identically ([checksum] is the fingerprint). *)

type config = {
  tenants : int;  (** serving loops interleaved on the scheduler (>= 1) *)
  requests : int;  (** requests per tenant *)
  keys : int;  (** per-tenant keyspace size *)
  value_bytes : int;  (** value size; multiple of 8 *)
  zipf_s : float;  (** Zipf popularity exponent (0 = uniform) *)
  arrival_ns : float;  (** mean inter-arrival time per tenant (open loop) *)
  get_fraction : float;  (** fraction of gets (rest are puts), in [0,1] *)
  slo_ns : float;  (** per-request latency objective *)
  local_ratio : float;  (** cached fraction of each tenant's data, (0,1] *)
  line : int;  (** section line size; multiple of 8 *)
  seed : int;
}

val config_default : config
(** 4 tenants, 20_000 requests each, 8192 keys of 128 B, [zipf_s] 0.99,
    8 us mean inter-arrival, 95% gets, 50 us SLO, half the data cached,
    256 B lines.  The per-tenant offered load is ~25% of the shared
    system's capacity, so a tenant sweep crosses saturation around 4
    tenants — the interesting region for tail latency. *)

val validate : config -> unit
(** Raises [Invalid_argument] with a descriptive message on a bad
    configuration (non-positive counts, [value_bytes] not a multiple
    of 8, out-of-range fractions, NaN rates, ...). *)

type tenant_report = {
  tenant : int;
  completed : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
  slo_miss : int;  (** requests with latency > [slo_ns] *)
  slo_miss_frac : float;
  lat_hist : Mira_telemetry.Metrics.hist;
      (** per-request latency; tail exemplars carry trace ids when
          tracing was enabled during the run *)
}

type report = {
  r_cfg : config;
  per_tenant : tenant_report array;
  elapsed_ns : float;  (** max over tenant clocks, setup excluded *)
  throughput_rps : float;  (** completed requests per simulated second *)
  agg_p50_ns : float;
  agg_p99_ns : float;
  agg_p999_ns : float;
  agg_slo_miss_frac : float;
  checksum : int64;  (** order-sensitive digest of every observed value *)
}

(** Time-resolved telemetry over a serving run.

    A [Timeline] attaches a sampler task to the run: it wakes at every
    [interval_ns] boundary of simulated time and closes a typed window
    — per-tenant request/SLO-miss counts and latency percentiles, wire
    bytes, the net in-flight count sampled at the close, per-window
    interference-matrix deltas, and top-K hot keys / hot miss sites.
    The sampler only reads shared state and its clock lives outside
    the runtime's registry, so a run with a timeline attached is
    byte-identical (checksum, latencies, report JSON) to one without.

    Derived per window: the SLO {e burn rate} (window miss fraction vs
    [burn_threshold]) and a {e saturation} flag — the closing in-flight
    sample at the cap when a bounded window is configured (that sample
    is all the flag sees), wire >= 95% busy otherwise.
    [saturation_onset_ns]/[first_burn_ns] are the starts of the first
    such windows. *)
module Timeline : sig
  type t

  val make : ?interval_ns:float -> unit -> t
  (** [interval_ns] defaults to 250 us windows (raises
      [Invalid_argument] unless positive).  Fixed constants: the ring
      holds 256 windows (when it fills, adjacent windows merge
      pairwise, oldest first, so it still covers the whole run), a
      window burns when more than 1% of its requests miss the SLO,
      and the hot-key sketch and merged top-K lists keep the top 8. *)

  val saturation_onset_ns : t -> float option
  (** Start of the first saturated window (after the run). *)

  val first_burn_ns : t -> float option
  (** Start of the first window whose miss fraction exceeded the burn
      threshold. *)

  val jsonl : t -> rt:Mira_runtime.Runtime.t -> Mira_telemetry.Json.t list
  (** One object per window (type ["window"]) plus a trailing summary
      (type ["summary"]) carrying onset figures and, per tenant, the
      exact fixed-point interference row total next to the queue-stall
      ledger bucket — equal by construction, so consumers can audit
      the invariant from the JSONL alone.  All fixed-point values are
      decimal strings (int64-exact). *)
end

val runtime_config : config -> Mira_runtime.Runtime.config
(** The runtime sizing [run] uses: per-tenant section bytes
    ([local_ratio] of the data, line-rounded) plus slack as the local
    budget, page-rounded per-tenant far allocations as the capacity,
    and the config's tenant count.  Exposed so drivers can create the
    runtime themselves ([run_on]) and keep access to its telemetry
    (ledger, trace, metrics) after the run. *)

val run : config -> report
(** Build a runtime sized for the config (per-tenant sections carved
    from the local budget), run the serving loops to completion on the
    scheduler, and report.  Setup (allocation, section creation) is
    excluded from the measured window via [reset_timing]. *)

val run_on : ?timeline:Timeline.t -> Mira_runtime.Runtime.t -> config -> report
(** Same, on a caller-provided runtime — the runtime's tenant count
    must match [config.tenants] (raises [Invalid_argument] otherwise).
    The caller is responsible for sizing [local_budget]/[far_capacity]
    and may pre-configure the data plane or cluster spec; sections and
    site routes are still created here.  [timeline] attaches the
    window sampler (tenant id [config.tenants], one past the serving
    tasks) for the duration of the run. *)

val publish : report -> Mira_telemetry.Metrics.t -> unit
(** Export [serving.requests], [serving.slo_miss], and per tenant
    [serving.tenant<N>.latency] / [serving.tenant<N>.slo_miss]. *)

val report_json : report -> Mira_telemetry.Json.t
(** Stable JSON shape for the bench harness and tests. *)
