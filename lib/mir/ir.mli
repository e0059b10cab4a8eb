(** The Mira intermediate representation.

    Structured control flow (MLIR [scf]-style [For]/[While]/[If]
    regions, no raw CFG), SSA-ish virtual registers, typed memory
    operations, and two far-memory dialects:

    - the {e remotable} dialect marks allocations/functions that may
      live in (or be offloaded to) far memory; here it appears as the
      [site] on [Alloc] plus [f_remotable]/[f_offloaded] on functions;
    - the {e rmem} dialect is the explicit far-memory operations the
      compiler introduces: [Prefetch], [PrefetchIndirect], [FlushEvict],
      and the [access_meta] annotations on [Load]/[Store] that record
      the section routing and the dereference-to-native proof.

    Programs built by the front end contain none of the rmem dialect;
    the passes in [Mira_passes] introduce it. *)

type reg = int
(** Virtual register, numbered per function from 0. *)

type operand =
  | Oreg of reg
  | Oint of int64
  | Ofloat of float
  | Obool of bool
  | Ounit

type binop = Add | Sub | Mul | Div | Rem | Land | Lor | Lxor | Shl | Shr
type fbinop = Fadd | Fsub | Fmul | Fdiv
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type space =
  | Heap  (** candidate for far memory *)
  | Stack  (** always local: stack data never goes to far memory *)

type access_meta = {
  am_site : int;  (** allocation site of the base object; -1 = unknown *)
  am_remote : bool;  (** converted to an rmem (remote) operation *)
  am_native : bool;  (** proved residency: compile to a native load *)
}
(** Annotation the conversion and optimization passes attach to memory
    operations.  [am_remote = false] means the access runs on whatever
    the default path is (native for local objects, swap section for
    far ones). *)

val meta_default : access_meta

type op =
  | Bin of reg * binop * operand * operand
  | Fbin of reg * fbinop * operand * operand
  | Cmp of reg * cmpop * operand * operand
  | Fcmp of reg * cmpop * operand * operand
  | Not of reg * operand
  | I2f of reg * operand
  | F2i of reg * operand
  | Mov of reg * operand
  | Alloc of { dst : reg; site : int; elem : Types.ty; count : operand; space : space }
      (** [dst = alloc count x elem]; [site] is the allocation site id,
          unique program-wide, used for placement decisions. *)
  | Free of { ptr : operand; site : int }
  | Gep of { dst : reg; base : operand; index : operand; elem : Types.ty; field_off : int }
      (** [dst = base + index * size_of elem + field_off]. *)
  | Load of { dst : reg; ty : Types.ty; ptr : operand; meta : access_meta }
  | Store of { ty : Types.ty; ptr : operand; value : operand; meta : access_meta }
  | Call of { dst : reg; callee : string; args : operand list }
  | For of { iv : reg; lo : operand; hi : operand; step : operand; body : block }
      (** [for iv = lo; iv < hi; iv += step].  [step] must be positive. *)
  | ParFor of { iv : reg; lo : operand; hi : operand; step : operand; body : block }
      (** Parallel loop: iterations are partitioned over the machine's
          simulated threads. *)
  | While of { cond : block; cond_val : operand; body : block }
      (** Evaluate [cond]; continue while [cond_val] is true. *)
  | If of { cond : operand; then_ : block; else_ : block }
  | Ret of operand
  (* --- rmem dialect --- *)
  | Prefetch of { ptr : operand; len : int; meta : access_meta }
      (** Asynchronous fetch of [len] bytes at [ptr] into the section. *)
  | FlushEvict of { ptr : operand; len : int; meta : access_meta }
      (** Eviction hint: asynchronously write back and mark evictable. *)
  | EvictSite of int
      (** Lifetime hint: all cached data of a site is dead in this scope
          — write back asynchronously and mark evict-first. *)
  | ProfEnter of string
  | ProfExit of string

and block = op list

type func = {
  f_name : string;
  f_params : (reg * Types.ty) list;
  f_ret : Types.ty;
  f_body : block;
  f_nregs : int;  (** registers are numbered [0 .. f_nregs-1] *)
  f_remotable : bool;  (** eligible for offloading (analysis result) *)
  f_offloaded : bool;  (** offloading decision (pass result) *)
  f_offload_sites : int list;  (** sites the offloaded body accesses: the
                                   caller flushes them before and
                                   invalidates them after the RPC *)
}

type site_info = { si_id : int; si_name : string; si_elem : Types.ty }
(** Program-wide allocation-site table entry. *)

type program = {
  p_name : string;
  p_funcs : (string * func) list;  (** definition order preserved *)
  p_entry : string;
  p_sites : site_info list;
}

val find_func : program -> string -> func
(** Raises [Not_found]. *)

val find_site : program -> int -> site_info
(** Raises [Not_found]. *)

val map_ops : (op -> op) -> block -> block
(** Structure-preserving deep map over every op in a block, applied
    bottom-up (children first). *)

val iter_ops : (op -> unit) -> block -> unit
(** Deep iteration over every op, outer-to-inner. *)

val fold_ops : ('a -> op -> 'a) -> 'a -> block -> 'a
(** Deep left fold over every op, outer-to-inner. *)

val op_count : block -> int
(** Number of ops, deep. *)

val expand_ops : (op -> op list) -> block -> block
(** Like [map_ops] but each op may be rewritten to a sequence
    (children first). *)
