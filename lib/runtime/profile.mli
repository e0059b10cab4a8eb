(** Run-time profiling counters (§4.1).

    Mira's compiler instruments functions with enter/exit events and
    the runtime attributes every nanosecond it spends (cache lookups,
    misses, evictions, stalls) to the functions currently on the
    per-thread call stack — inclusively, because selecting a function
    for analysis implicitly selects its callees.  Allocation sites
    record their total allocated bytes so the controller can pick the
    largest objects.  All times are simulated nanoseconds. *)

type fn_stat = {
  mutable calls : int;
  mutable total_ns : float;  (** inclusive wall (simulated) time *)
  mutable runtime_ns : float;  (** inclusive time in the far-memory runtime *)
}

type site_stat = {
  mutable alloc_bytes : int;
  mutable allocs : int;
  mutable overhead_ns : float;  (** runtime time attributable to this site *)
  mutable misses : int;  (** demand misses on this site's objects *)
}

type t

val create : unit -> t

exception Mismatched_exit of { name : string; tid : int; stack : string list }

val set_strict : t -> bool -> unit
(** In strict mode (tests), [exit_] for a function that is not the top
    of [tid]'s stack raises [Mismatched_exit].  Off by default: runs
    recover gracefully instead (see [exit_]). *)

val enter : t -> tid:int -> now:float -> string -> unit

val exit_ : t -> tid:int -> now:float -> string -> unit
(** Pop [name]'s frame and charge its inclusive time.  On a mismatched
    exit (non-strict mode): if [name] is on the stack but not on top,
    intermediate frames are closed and charged as if they exited now;
    if [name] is not on the stack at all, the exit is dropped and the
    stack is left untouched. *)

val current : t -> tid:int -> string option
(** The innermost open frame on [tid]'s stack, if any. *)

type stack
(** One thread's open frames: the same value for the profile's lifetime
    ([reset] empties it in place), so a caller may resolve it once. *)

val stack : t -> tid:int -> stack

val innermost : stack -> default:string -> string
(** The innermost open frame's function, [default] when none is open. *)

val charge : stack -> ns:float -> unit
(** Charge one access's [ns] of runtime overhead, when positive, to
    every function on the stack. *)

val add_alloc : t -> site:int -> bytes:int -> unit

val add_site_overhead : t -> site:int -> ns:float -> unit

val add_site_misses : t -> site:int -> n:int -> unit

val touch : stack -> site:int -> unit
(** Record that the stack's open function(s) accessed [site]. *)

val fn_stats : t -> (string * fn_stat) list
val site_stats : t -> (int * site_stat) list

val top_functions : t -> frac:float -> string list
(** The ceil(frac * n) functions with the highest overhead ratio. *)

val largest_sites : t -> frac:float -> among:string list -> int list
(** The ceil(frac * n) costliest (then largest) allocation sites
    touched by [among]. *)

val reset : t -> unit
(** Clear every counter and stack. *)
