(** Perf-regression gate over [BENCH_*.json] documents.

    The bench harness writes one JSON document per figure.  Sweep
    documents (BENCH_micro) key rows by local-memory ratio and nest
    per-system simulated work times; dataplane and chaos documents key
    rows by a config string (plus a seed for chaos) with one flat
    [work_ms]; BENCH_paper lists sweep documents under ["figures"] and
    keys their rows by ["<figure title>: <row key>"].  This module parses either shape into string-keyed rows
    and compares two documents (a committed baseline and a fresh
    candidate) with a relative noise tolerance.  The comparison is
    pure so the test suite can exercise it on synthetic documents;
    [bin bench/mira_bench_diff] wraps it as a CLI that CI runs. *)

type outcome =
  | Time_ms of float  (** simulated work time in milliseconds *)
  | Failed of string  (** the system could not run (e.g. AIFM OOM) *)

type row = {
  r_key : string;
      (** ["ratio=<g>"] for sweep rows, ["<config>"] or
          ["<config> seed=<n>"] for dataplane/chaos rows, prefixed with
          ["<figure title>: "] inside a ["figures"] document *)
  r_systems : (string * outcome) list;
      (** per-system outcomes; flat rows get a single ["work_ms"]
          pseudo-system *)
}

type doc = {
  d_title : string;
  d_native_work_ms : float option;
  d_rows : row list;
}

val of_json : Json.t -> (doc, string) result
(** Parse a BENCH document.  [Error] names the first malformed field. *)

val load : string -> (doc, string) result
(** Read and parse a BENCH file.  [Error] covers unreadable files,
    malformed JSON, and schema violations (message includes the path). *)

type verdict = {
  v_regressions : string list;
      (** one human-readable line per regression: a system slower than
          baseline beyond tolerance, a run that now fails, or a
          baseline row/system missing from the candidate *)
  v_improvements : string list;  (** faster beyond tolerance, or fixed *)
  v_notes : string list;  (** coverage drift that is not a regression *)
  v_compared : int;  (** number of (row, system) time pairs compared *)
}

val compare_docs : tolerance:float -> baseline:doc -> candidate:doc -> verdict
(** Match rows by key and systems by name; a candidate time more
    than [tolerance] (relative, e.g. [0.05] = 5%) above baseline is a
    regression.  Rows or systems present in baseline but missing from
    the candidate are regressions (silent coverage loss); new ones are
    notes. *)
