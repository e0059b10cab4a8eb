(** Cache-section size selection (§4.3).

    Each candidate section has a sampled size→overhead curve (from
    profiling runs at a few sizes).  We minimize total overhead subject
    to the chosen sizes summing to at most the budget, the one static
    sum the cache manager enforces.  The paper formulates this as an
    ILP; our instances are tiny (a handful of sections × a handful of
    sampled sizes), so an exact branch-and-bound enumeration finds the
    same optimum and is verified against brute force in the tests.

    {b Aborted samples.}  The controller stops a sample's run once its
    work time passes twice the best work time known so far (the
    accepted configuration's, or a faster sample's of the same sizing
    round).  Such an option is scored with that bound: a lower bound on
    its true overhead, at least as high as every option measured under
    the same or a later bound.  Among options of equal score a measured
    one wins, so with one candidate an aborted size is chosen only when
    no size was measured. *)

type candidate = {
  cand_id : int;
  options : (int * float) array;  (** (size in bytes, overhead score) *)
  aborted : int list;
      (** sizes whose score is the abort bound, not a measurement *)
}

type solution = { assignment : (int * int) list; total_overhead : float }
(** [(cand_id, chosen size)] pairs, in input order. *)

val solve : budget:int -> candidate list -> (solution, string) result
(** Optimal assignment, or [Error] if no combination fits the budget. *)

val solve_brute : budget:int -> candidate list -> (solution, string) result
(** Plain exhaustive enumeration (test oracle for [solve]). *)
