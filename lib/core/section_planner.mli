(** Decides cache-section configurations from analysis + profiling
    (§4.2): line size, structure, communication side, selective-
    transmission payload, and the read/write/no-metadata flags.

    The rules implement the paper's reasoning:
    - line size: no larger than the access granularity for random/
      indirect patterns (avoid amplification); as large as the network
      transmits efficiently for sequential ones (big lines amortize the
      per-line dereference);
    - structure: direct-mapped for sequential/strided (no conflicts),
      set-associative when a locality set exists (indirect / pointer
      chase), fully-associative otherwise;
    - side: one-sided when whole elements are consumed, two-sided with
      a fields-only payload when the program touches a strict subset of
      fields (selective transmission, §4.5/§4.7): the payload is the
      touched field extents, and the section's lines hold only them;
    - flags: read-only sections may be copied per thread, write-only
      sequential sections skip fetch-on-write, and fully-compiler-
      controlled sequential sections run metadata-free. *)

type spec = {
  sp_sites : int list;  (** sites grouped into this section *)
  sp_cfg : Mira_cache.Section.config;  (** [size] filled by the sizer *)
  sp_seq : bool;  (** sequential/strided: size is a small constant *)
  sp_min_size : int;  (** smallest useful size in bytes *)
  sp_total_bytes : int;  (** combined allocated bytes of the sites *)
  sp_private_ok : bool;  (** read-only: may be split per-thread *)
}

val plan :
  params:Mira_sim.Params.t ->
  summaries:(Mira_analysis.Pattern.site_summary * (int * int)) list ->
  site_bytes:(int -> int) ->
  first_id:int ->
  spec list
(** One spec per pattern group; sites with equal configuration
    decisions share a section.  [summaries] pairs each selected site's
    summary with its lifetime interval. *)

val seq_line_bytes : params:Mira_sim.Params.t -> elem:int -> int
(** The sequential-section line size rule (exposed for Figure 9). *)

val seq_section_bytes :
  params:Mira_sim.Params.t -> line:int -> body_ops:int -> int
(** Size needed to hold the prefetch window of a streaming section. *)
