(** Low-level allocator of far-memory virtual addresses.

    Plays the role of the paper's "remote allocator" (§5.2.1): it owns
    the far node's address space and hands out ranges; the local-node
    allocator ([Mira_runtime.Local_alloc]) buffers ranges obtained from
    here.  First-fit with address-ordered free-list coalescing. *)

type t

(** {1 Free lists}

    The address-ordered, coalesced range list kept here and by the
    local-node allocator's buffer. *)

type range = { addr : int; len : int }

val take : range list -> int -> (int * range list) option
(** First fit: the base of [len] bytes cut from the lowest range that
    holds them, and the list without them; [None] when none does. *)

val insert : range list -> range -> range list
(** Return a range, coalescing with its neighbours.  Raises
    [Invalid_argument] when it overlaps free space. *)

(** {1 The allocator} *)

val create : base:int -> limit:int -> t
(** Manage addresses in [\[base, limit)]. *)

val alloc : t -> int -> int
(** [alloc t len] returns the base address of a fresh [len]-byte range,
    8-byte aligned.  Raises [Out_of_memory] when the space is exhausted. *)

val free : t -> addr:int -> len:int -> unit
(** Return a range.  Freeing an address that was not allocated, or
    double-freeing, raises [Invalid_argument]. *)

val live_bytes : t -> int
(** Bytes currently allocated. *)

val high_water : t -> int
(** Maximum of [live_bytes] ever observed. *)

val check_no_overlap : t -> bool
(** Debug/property hook: true iff live ranges are pairwise disjoint. *)
