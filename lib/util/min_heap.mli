(** Array-backed binary min-heap over a caller-supplied ordering.

    The ordering is given at {!create} as [le a b] meaning "a comes no
    later than b".  It must be total: of two distinct stored elements,
    at least one comes no later than the other.  When [le] is a strict total order (no two stored
    elements compare equal both ways — e.g. Sched's
    [(time, tenant, seqno)] keys where the seqno is globally unique),
    the pop sequence is exactly the [le]-sorted push sequence, which
    is what makes the heap a drop-in replacement for a scan-for-min
    over an unordered list.  With genuinely tied elements the pop
    order among ties is unspecified; callers that need stability must
    fold an insertion index into [le].

    [push]/[pop] are O(log n), [top] O(1), and the backing array
    doubles on demand, so a heap that is pushed and popped in steady
    state allocates nothing per operation. *)

type 'a t

val create : le:('a -> 'a -> bool) -> 'a t
(** Empty heap ordered by [le]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val top : 'a t -> 'a
(** Smallest element, not removed.  Raises [Invalid_argument] on an
    empty heap. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val clear : 'a t -> unit
(** Drop every element and release the backing storage. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Visit every element in unspecified (array) order. *)

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Fold over every element in unspecified (array) order. *)

val map_monotone : ('a -> 'a) -> 'a t -> unit
(** Replace every element [x] by [f x], in place, without
    re-heapifying.  Sound only when [f] is monotone with respect to
    [le] ([le a b] implies [le (f a) (f b)]) — e.g. clamping a time
    key down to a common bound — because then the heap invariant is
    preserved pointwise. *)
