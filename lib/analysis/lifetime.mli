(** Lifetime analysis (§4.2 "when to start and end a section").

    Program phases are a function's top-level loops in order (loop 0,
    loop 1, ...).  For each allocation site we compute the first and
    last phase that touches it; after the last phase the site's cached
    data is dead in this scope, so the compiler can insert an
    [EvictSite] hint and the sizing ILP can overlap sections whose
    phase intervals are disjoint (the GPT-2 layer-by-layer pattern). *)

type interval = { first_phase : int; last_phase : int }

val site_phases : Pattern.result -> (int * interval) list
(** Phase interval per site, from a function's pattern analysis.
    Sites touched outside any top-level loop get the full span. *)

val phases_count : Pattern.result -> int
(** Number of phases (top-level loops); at least 1. *)

val dead_after : Pattern.result -> phase:int -> int list
(** Sites whose last phase is [phase] — candidates for eviction hints
    placed right after that loop. *)
