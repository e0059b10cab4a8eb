module Pattern = Mira_analysis.Pattern
module Section = Mira_cache.Section
module Params = Mira_sim.Params
module Misc = Mira_util.Misc

(* Sequential line size: cover many elements per dereference, but stay
   within what the network moves efficiently — beyond ~bandwidth*RTT/8
   the per-line transfer time dominates the latency it amortizes
   (Figure 9 flattens around 2 KB on a 50 Gbps / 3 µs link). *)
let seq_line_bytes ~params ~elem =
  let p = params in
  let network_sweet =
    p.Params.bandwidth_bytes_per_ns *. p.Params.one_sided_rtt_ns /. 8.0
  in
  let cap = Misc.clamp ~lo:256 ~hi:8192 (int_of_float network_sweet) in
  let line = Misc.next_pow2 cap / 2 in
  Misc.round_up (max 256 line) (max 8 elem)

(* Random/indirect line: exactly one element (avoid amplification). *)
let elem_line_bytes ~elem = Misc.round_up (max 8 elem) 8

let seq_section_bytes ~params ~line ~body_ops =
  (* Enough lines to cover the in-flight prefetch window twice. *)
  let iter_ns =
    (float_of_int (max 1 body_ops) *. params.Params.native_op_ns)
    +. (2.0 *. params.Params.native_mem_ns)
  in
  let dist = int_of_float (ceil (params.Params.one_sided_rtt_ns /. iter_ns)) in
  let lines = Misc.clamp ~lo:16 ~hi:4096 (4 * Misc.divide_ceil (dist * 8) line + 16) in
  lines * line

type spec = {
  sp_sites : int list;
  sp_cfg : Section.config;
  sp_seq : bool;
  sp_min_size : int;
  sp_total_bytes : int;
  sp_private_ok : bool;
}

(* The per-site configuration decision; sites deciding identically (and
   with overlapping lifetimes) are grouped into one section. *)
type decision = {
  d_line : int;
  d_structure : Section.structure;
  d_side : Mira_sim.Net.side;
  d_payload : (int * int) list option;
  d_no_meta : bool;
  d_write_no_fetch : bool;
  d_read_only : bool;
  d_seq : bool;
}

let decide ~params (ss : Pattern.site_summary) =
  let elem = ss.Pattern.ss_elem in
  let seq_kind =
    match ss.Pattern.ss_kind with
    | Pattern.Sequential _ | Pattern.Strided _ -> true
    | Pattern.Indirect _ | Pattern.Pointer_chase | Pattern.Random -> false
  in
  let line =
    if seq_kind then seq_line_bytes ~params ~elem else elem_line_bytes ~elem
  in
  let structure =
    match ss.Pattern.ss_kind with
    | Pattern.Sequential _ | Pattern.Strided _ -> Section.Direct
    | Pattern.Indirect _ | Pattern.Pointer_chase -> Section.Set_assoc 8
    | Pattern.Random -> Section.Full_assoc
  in
  (* Selective transmission applies when a strict subset of an
     element's fields is touched and a line is exactly one element, so
     the field extents are line offsets: the element must fill its line
     and lines must tile the page-aligned objects. *)
  let touched =
    match ss.Pattern.ss_fields with
    | Some fields -> List.fold_left (fun acc (_, len) -> acc + len) 0 fields
    | None -> elem
  in
  let side, payload =
    if (not seq_kind) && elem > 8 && touched < elem / 2 && line = elem
       && params.Params.page_size mod line = 0
    then (Mira_sim.Net.Two_sided, ss.Pattern.ss_fields)
    else (Mira_sim.Net.One_sided, None)
  in
  (* Sequential read-only / write-only groups are true streams whose
     size saturates at the prefetch window; sequential read-write
     buffers are re-scanned (GPT's activations), so their size matters
     and must be sampled like the non-sequential sections. *)
  let streaming =
    seq_kind && (ss.Pattern.ss_read_only || ss.Pattern.ss_write_only)
  in
  {
    d_line = line;
    d_structure = structure;
    d_side = side;
    d_payload = payload;
    d_no_meta = seq_kind;
    (* Fetch-free stores are safe when streaming writes cover whole
       lines before any read, or unconditionally when the line is a
       single 8-byte slot (every store covers its entire line). *)
    d_write_no_fetch = (ss.Pattern.ss_write_only && seq_kind) || line <= 8;
    d_read_only = ss.Pattern.ss_read_only;
    d_seq = streaming;
  }

let overlap (a1, a2) (b1, b2) = a1 <= b2 && b1 <= a2

let plan ~params ~summaries ~site_bytes ~first_id =
  let decided =
    List.map
      (fun ((ss : Pattern.site_summary), interval) ->
        (ss, interval, decide ~params ss))
      summaries
  in
  (* Grouping: streaming sections (pure read or write streams) merge by
     configuration alone — phased streams (GPT-2's per-layer weights)
     time-multiplex one small window naturally.  Non-streaming sections
     occupy space for their whole lifetime, so only lifetime-overlapping
     sites merge; disjoint ones stay separate sections, each with its
     own share of the one static budget. *)
  let groups : (decision * (int * int) * int list) list ref = ref [] in
  List.iter
    (fun ((ss : Pattern.site_summary), interval, d) ->
      let mergeable iv' =
        if d.d_seq then true else overlap iv' interval
      in
      let rec place = function
        | [] -> [ (d, interval, [ ss.Pattern.ss_site ]) ]
        | (d', iv', sites) :: rest when d' = d && mergeable iv' ->
          let merged =
            (min (fst iv') (fst interval), max (snd iv') (snd interval))
          in
          (d', merged, ss.Pattern.ss_site :: sites) :: rest
        | g :: rest -> g :: place rest
      in
      groups := place !groups)
    decided;
  List.mapi
    (fun i (d, _, sites) ->
      let sec_id = first_id + i in
      let name = Printf.sprintf "sec%d" sec_id in
      let min_size =
        match d.d_structure with
        | Section.Set_assoc k -> k * d.d_line
        | Section.Direct | Section.Full_assoc -> 4 * d.d_line
      in
      let total =
        List.fold_left (fun acc site -> acc + site_bytes site) 0 sites
      in
      {
        sp_sites = List.rev sites;
        sp_cfg =
          {
            Section.sec_id;
            sec_name = name;
            line = d.d_line;
            size = min_size;  (* overwritten by the sizer *)
            structure = d.d_structure;
            side = d.d_side;
            payload = d.d_payload;
            no_meta = d.d_no_meta;
            write_no_fetch = d.d_write_no_fetch;
          };
        sp_seq = d.d_seq;
        sp_min_size = min_size;
        sp_total_bytes = total;
        sp_private_ok = d.d_read_only;
      })
    (List.rev !groups)
