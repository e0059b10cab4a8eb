(** One of the two local caches over far memory.

    A cache is either a compiler-configured [Section] or the
    page-granularity [Swap_section]; both move lines through
    [Transfer].  [Manager] and [Runtime] dispatch on this closed
    variant, so nothing above the cache layer special-cases the swap
    section: "no section assigned" simply routes to [Swap].

    The operations: lookup ([access]: a load or a store, checked or
    compiler-proved resident, which the swap section serves through its
    page table like any access), asynchronous
    insertion ([prefetch_range]), writeback ([evict_hint] marks covered
    data a preferred victim and writes it back asynchronously;
    [flush_range] writes back synchronously without evicting;
    [flush_all] re-issues every still-dirty line after a failover),
    [discard_range] (drop without writeback), and telemetry ([publish], [reset_stats],
    [metadata_bytes], and [misses] (faults, for swap) for
    profiler attribution). *)

type handle = Section of Section.t | Swap of Swap_section.t

(* A load, or with [write] a store of [v] (returning 0L). *)
let access h ~clock ~addr ~len ~native ~write v =
  match h with
  | Section s -> Section.access s ~clock ~addr ~len ~native ~write v
  | Swap s when write ->
    Swap_section.store s ~clock ~addr ~len v;
    0L
  | Swap s -> Swap_section.load s ~clock ~addr ~len

let prefetch_range h ~clock ~addr ~len =
  match h with
  | Section s -> Section.prefetch s ~clock ~addr ~len
  | Swap s -> Swap_section.prefetch_range s ~clock ~addr ~len

let evict_hint h ~clock ~addr ~len =
  match h with
  | Section s -> Section.flush_evict s ~clock ~addr ~len
  | Swap s -> Swap_section.evict_hint s ~clock ~addr ~len

let flush_range h ~clock ~addr ~len =
  match h with
  | Section s -> Section.flush_range s ~clock ~addr ~len
  | Swap s -> Swap_section.flush_range s ~clock ~addr ~len

let discard_range h ~addr ~len =
  match h with
  | Section s -> Section.discard_range s ~addr ~len
  | Swap s -> Swap_section.discard_range s ~addr ~len

let flush_all h ~clock =
  match h with
  | Section s -> Section.flush_all s ~clock
  | Swap s -> Swap_section.flush_all s ~clock

let publish h reg =
  match h with
  | Section s -> Section.publish s reg
  | Swap s -> Swap_section.publish s reg

let reset_stats = function
  | Section s -> Section.reset_stats s
  | Swap s -> Swap_section.reset_stats s

let metadata_bytes = function
  | Section s -> Section.metadata_bytes s
  | Swap s -> Swap_section.metadata_bytes s

let misses = function
  | Section s -> (Section.stats s).Section.misses
  | Swap s -> (Swap_section.stats s).Swap_section.faults
