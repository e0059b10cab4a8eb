(** The iterative optimization controller (§3, Figure 1).

    Starting from the swap-everything configuration, each iteration:
    profiles a run, picks the top-N% highest-cache-overhead functions
    (N grows 10%, 20%, ... per iteration) and the largest objects they
    touch, analyzes their access patterns, plans cache sections
    ([Section_planner]), sizes them (sampled profiling + the
    [Mira_cache.Sizing] ILP), compiles the program against the plan
    ([Mira_passes.Pipeline]), and keeps the result only if it actually
    improved — otherwise it rolls back (§4.1).  Iteration stops at the
    configured limit or when the gain falls under 2%. *)

type options = {
  params : Mira_sim.Params.t;
  local_budget : int;
  far_capacity : int;
  dataplane : Mira_sim.Net.dp_config;
      (** network data-plane settings for every runtime the controller
          creates (window, doorbell batching, fault injection) *)
  cluster : Mira_sim.Cluster.spec;
      (** far-memory cluster topology and crash schedule for every
          runtime the controller creates.  On any spec but
          [Cluster.spec_default] the search first samples the [Flat]
          and [Rotate] stripe layouts, like section sizes, and carries
          the fastest into every compile and the final runtime; the
          default keeps its own placement with no extra runs. *)
  max_iterations : int;
  nthreads : int;
  tenants : int;
      (** tenant contexts on every runtime the controller creates
          ([Mira_runtime.Runtime.config.tenants]); 1 = the historical
          single-tenant mode *)
  seed : int;
  feat_sections : bool;  (** ablation toggles (Figures 6/15/21/23) *)
  feat_prefetch : bool;
  feat_evict : bool;
  feat_fusion : bool;
  feat_native : bool;
  feat_offload : bool;
  always_accept : bool;  (** keep the last configuration even if it
                             regressed (ablation studies / debugging) *)
  verbose : bool;
}

val options_default : local_budget:int -> far_capacity:int -> options

type assignment = { a_spec : Section_planner.spec; a_size : int }

type compiled = {
  c_program : Mira_mir.Ir.program;  (** final program, [work] instrumented *)
  c_original : Mira_mir.Ir.program;
  c_plan : Mira_passes.Pipeline.plan;
  c_assignments : assignment list;
  c_options : options;
  c_iterations : int;  (** profiling-optimization rounds executed *)
  c_work_ns : float;  (** best measured work time during optimization *)
  c_log : Mira_telemetry.Decision.t list;  (** decision trace, oldest first *)
}

val optimize : options -> Mira_mir.Ir.program -> compiled
(** Run the full iterative flow.  The search simulates each distinct
    configuration (options, instrumented program, section assignments)
    once: a repeat within the same call reuses the stored work time and
    profile, so it gives the same decisions as a fresh run.  Nothing is
    kept across calls.  A size sample or a measure is stopped once its
    work time passes twice the best known, and logged as
    [Sample_aborted] or [Measure_aborted] (not under [always_accept],
    whose measures run to the end).  The log level follows [verbose]
    during the search, and the caller's level is restored on return. *)

val instantiate :
  compiled -> Mira_runtime.Runtime.t * Mira_interp.Machine.t
(** Fresh runtime with the compiled section configuration applied, and
    a machine ready to run the compiled program. *)

val run : compiled -> Mira_interp.Value.t * float
(** Execute on a fresh instantiation; returns the program result and
    the measured simulated time of [work] (ns). *)

val measure_work :
  Mira_runtime.Memsys.t -> Mira_interp.Machine.t -> Mira_interp.Value.t * float
(** Run a machine's entry and return (result, work-function time).
    Used by benches to time baselines identically. *)

val work_function : Mira_mir.Ir.program -> string
(** The measured function: ["work"] when defined, else the entry. *)

val site_summaries :
  Mira_mir.Ir.program ->
  int list ->
  (Mira_analysis.Pattern.site_summary * (int * int)) list
(** What the planner is given for these sites: each accessed site's
    summary merged over the measured function's call tree (the most
    demanding pattern, read/write flags that hold in every scope), with
    its lifetime interval.  The touched fields are the union over every
    function of the program, or [None] when some access could reach a
    byte outside them. *)
