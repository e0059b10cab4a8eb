(** Typed controller decision events.

    The iterative controller used to keep its decision trace as a
    [string list]; these constructors replace it with structured data
    that reports, benches, and traces can consume directly.  [render]
    is the backwards-compatible shim producing (approximately) the old
    log lines; [to_json] feeds [--json] reports and [BENCH_*.json].

    Iteration 0 is the initial swap-everything profiling run; the
    optimization rounds are 1-based, matching the paper's §3 flow:
    profile → select → analyze → plan → size → compile →
    accept/rollback. *)

type t =
  | Profile_run of { iteration : int; work_ns : float }
      (** a fully-instrumented measurement run completed *)
  | Select of { iteration : int; functions : string list; sites : int list }
      (** top-overhead functions and their largest/hottest sites *)
  | Analyze of {
      iteration : int;
      site : int;
      pattern : string;
      elem : int;
      read_only : bool;
      write_only : bool;
    }  (** merged access-pattern summary for one selected site *)
  | Plan_section of {
      iteration : int;
      name : string;
      line : int;
      size : int;
      structure : string;
      sites : int list;
    }
      (** one section of the accepted plan, with its sized capacity;
          [structure] is ["resident"] for a resident section *)
  | Size_sample of { iteration : int; sec_id : int; size : int; resident : bool; work_ns : float }
      (** one sampled (section, size) profiling run; [resident] when it
          is the section's metadata-free resident form *)
  | Sample_aborted of {
      iteration : int;
      sec_id : int;
      size : int;
      resident : bool;
      limit_ns : float;
    }
      (** a size sample stopped once its work time passed [limit_ns]:
          twice the best work time known when it ran *)
  | Joint_sample of { iteration : int; work_ns : float }
      (** one whole-allocation candidate measurement; no longer
          emitted by the controller *)
  | Placement_sample of { iteration : int; placement : string; work_ns : float }
      (** one sampled cluster data-plane layout (stripe-to-node
          placement) measurement *)
  | Measure of { iteration : int; work_ns : float; best_ns : float }
      (** the compiled candidate's measured work time vs best so far *)
  | Measure_aborted of { iteration : int; limit_ns : float; best_ns : float }
      (** the compiled candidate's run stopped once its work time passed
          [limit_ns], twice [best_ns]; a [Rollback] follows *)
  | Accept of { iteration : int; work_ns : float }
  | Rollback of { iteration : int; reason : string }
  | Repeat of { iteration : int; decided_at : int }
      (** the iteration's selection was accepted or rolled back at
          iteration [decided_at]; it is not planned or measured again *)

val iteration : t -> int

val name : t -> string
(** Constructor tag ([accept], [rollback], ...), as used in JSON and
    trace event names. *)

val render : t -> string
val to_json : t -> Json.t
(** [{"event": ..., "iteration": ..., ...}] — field set depends on the
    constructor; see docs/OBSERVABILITY.md. *)
