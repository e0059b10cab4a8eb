(** Memory-access pattern analysis (§4.2, §5.2.2).

    Walks a function's structured body with a scalar-evolution
    environment and produces:

    - a {b loop tree} ([loop_info]) with every memory access in each
      loop body, its per-iteration stride, its indirection source
      (for [B[A[i]]] patterns) and a reconstructible [simple_gep] shape
      the prefetching pass uses to materialize future addresses;
    - per-site {b summaries} ([site_summary]) classifying each
      allocation site's access pattern (sequential / strided / indirect
      / pointer-chase / random), read/write mix, and touched fields
      (feeding line size, structure, communication-side and selective
      transmission decisions). *)

type gep_shape =
  | Idx_iv  (** index = the innermost loop's induction variable *)
  | Idx_iv_plus of int64  (** index = iv + constant *)
  | Idx_affine of { c0 : int64; terms : (int * int64) list }
      (** index = c0 + sum of coeff_d * iv_d over loop depths
          (flattened multi-dimensional indexing, e.g. [a[i*k + kk]]) *)
  | Idx_loaded of simple_gep  (** index loaded through this gep *)
  | Idx_const of int64
  | Idx_other

and simple_gep = {
  g_base : Mira_mir.Ir.operand;
  g_elem : Mira_mir.Types.ty;
  g_field : int;
  g_site : int;  (** -1 when unknown *)
  g_index : gep_shape;
}

type access = {
  a_site : int;
  a_rw : [ `R | `W ];
  a_ty : Mira_mir.Types.ty;
  a_elem : int;  (** gep element size in bytes *)
  a_field : int;  (** field offset within the element; -1 when the
                      pointer is not known to start at an element *)
  a_stride : int64 option;  (** bytes advanced per innermost iteration *)
  a_indirect_via : int option;  (** site whose loaded values form the index *)
  a_pointer_chase : bool;  (** base pointer was itself loaded from memory *)
  a_gep : simple_gep option;
  a_ptr : Mira_mir.Ir.operand;  (** the pointer the access dereferences *)
  a_meta : Mira_mir.Ir.access_meta;  (** the op's remote mark and site *)
  a_own : bool;
      (** in its loop body's own ops (not in an [If] or a [While]), through
          a gep's own pointer made there at [iv] plus literals added there *)
}

type loop_info = {
  l_iv : Mira_mir.Ir.reg;
  l_depth : int;
  l_parallel : bool;
  l_lo : Mira_mir.Ir.operand;
  l_hi : Mira_mir.Ir.operand;
  l_trip : int option;  (** constant trip count if known *)
  l_body_ops : int;
  l_straight : bool;  (** the body, nested loops included, has no call and no [While] *)
  l_accesses : access list;  (** direct body (incl. ifs, excl. nested loops) *)
  l_children : loop_info list;
}

type kind =
  | Sequential of int  (** stride in bytes *)
  | Strided of int
  | Indirect of int  (** indexed by values loaded from this site *)
  | Pointer_chase
  | Random

type site_summary = {
  ss_site : int;
  ss_kind : kind;
  ss_reads : int;  (** static access count *)
  ss_writes : int;
  ss_fields : (int * int) list option;
      (** touched field extents [(offset, len)] within the element,
          disjoint and ascending; [None] when some access does not map
          to a field of the element *)
  ss_elem : int;  (** element size in bytes *)
  ss_read_only : bool;
  ss_write_only : bool;
}

type result = {
  r_loops : loop_info list;
  r_summaries : site_summary list;
  r_sites : int list;  (** every site accessed in the function *)
  r_unresolved : int;  (** accesses whose base object could not be
                           resolved (the analysis stays sound by
                           leaving them on the default path) *)
}

val analyze : Remotable_flow.t -> Mira_mir.Ir.func -> result
(** Takes every access's site from {!Remotable_flow.regs}: an access
    is recorded exactly when its pointer resolves to a site, and
    [r_unresolved] counts the rest.  The walk itself adds only the
    shape: offsets, strides, indirection, chasing and geps. *)

val analyze_all : Remotable_flow.t -> Mira_mir.Ir.program -> (string * result) list
(** [analyze] for every function, in definition order. *)

val summary_for : result -> int -> site_summary option
val kind_to_string : kind -> string
