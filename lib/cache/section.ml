module Int_tbl = Mira_util.Misc.Int_tbl

type structure = Direct | Set_assoc of int | Full_assoc

type config = {
  sec_id : int;
  sec_name : string;
  line : int;
  size : int;
  structure : structure;
  side : Mira_sim.Net.side;
  payload : (int * int) list option;
  no_meta : bool;
  write_no_fetch : bool;
}

let config_default ~sec_id ~name ~line ~size =
  {
    sec_id;
    sec_name = name;
    line;
    size;
    structure = Full_assoc;
    side = Mira_sim.Net.One_sided;
    payload = None;
    no_meta = false;
    write_no_fetch = false;
  }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable late_prefetch : int;
  mutable evictions : int;
  mutable hinted_evictions : int;
  mutable admit_rejects : int;
  mutable writebacks : int;
  mutable native_misses : int;
  mutable hit_ns : float;
  mutable miss_ns : float;
  mutable stall_ns : float;
  mutable bytes_fetched : int;
  mutable bytes_written : int;
  lat_fetch : Mira_telemetry.Metrics.hist;
}

let fresh_stats () =
  {
    hits = 0;
    misses = 0;
    late_prefetch = 0;
    evictions = 0;
    hinted_evictions = 0;
    admit_rejects = 0;
    writebacks = 0;
    native_misses = 0;
    hit_ns = 0.0;
    miss_ns = 0.0;
    stall_ns = 0.0;
    bytes_fetched = 0;
    bytes_written = 0;
    lat_fetch = Mira_telemetry.Metrics.hist_create ();
  }

(* Per-slot runtime metadata: tag + flags + ready time + LRU stamp + a
   table entry for associative structures.  The paper's point (§4.4) is
   that compiler-controlled sections need none of it. *)
let meta_per_slot cfg =
  if cfg.no_meta then 0
  else match cfg.structure with Direct -> 24 | Set_assoc _ -> 32 | Full_assoc -> 48

let slot_bytes cfg =
  match cfg.payload with
  | None -> cfg.line
  | Some extents ->
    List.fold_left (fun acc (_, len) -> acc + len) 0 extents + meta_per_slot cfg

(* Metadata-free yet set-associative: with no tags to search, such a
   section must hold its whole object.  The runtime fills it when the
   object is allocated, nothing evicts from it, and every access costs
   a native one.  (A metadata-free direct section is a stream window,
   and a fully associative one a stream window shared by threads.) *)
let resident_section cfg =
  cfg.no_meta && match cfg.structure with Set_assoc _ -> true | Direct | Full_assoc -> false

let dirty = 1 and evictable = 2 and refbit = 4  (* slot flag bits *)

(* One slot per cached line, as parallel arrays: no per-slot record or
   per-line buffer, and the float columns stay unboxed. *)
type t = {
  cfg : config;
  payload : int;  (* bytes a slot stores: the payload extents' total *)
  remap : int array;
      (* payload sections: line offset -> offset in the slot's packed
         bytes, -1 outside the extents; empty for whole lines *)
  tags : int array;  (* line index in far address space; -1 = empty *)
  flags : Bytes.t;  (* [dirty] / [evictable] / [refbit] per slot *)
  ready_at : Float.Array.t;
  last_use : Float.Array.t;  (* set-assoc: LRU stamps *)
  data : Bytes.t;  (* slot i's bytes at [i * payload, (i + 1) * payload) *)
  hit_cost : float;  (* a lookup's (0 in [no_meta] mode), kept boxed: *)
  native_ns : float;  (* a clock move passes these without allocating *)
  table : int Int_tbl.t;  (* full-assoc: tag -> slot (a stub otherwise) *)
  mutable fresh : int;  (* full-assoc: slots from here on never held a line *)
  mutable discarded : int list;  (* full-assoc: slots emptied by a discard *)
  mutable hand : int;  (* CLOCK sweep position, full-assoc *)
  mutable evict_hints : int list;  (* slots hinted evictable, full-assoc *)
  counts : int ref Int_tbl.t;
      (* full-assoc: accesses per line tag, cached or not, aged *)
  line_count : int ref array;  (* full-assoc: slot -> its line's [counts] cell *)
  mutable accesses : int;  (* full-assoc: accesses since the counts last aged *)
  aging_period : int;  (* accesses per halving: ten capacities in words *)
  mutable counts_peak : int;  (* high-water entries of [counts] *)
  mutable probation : int;
      (* full-assoc: the latest demand fill's slot until the next CLOCK
         choice; -1 = none *)
  stats : stats;
  tr : Transfer.t;
}

let create net far cfg =
  assert (cfg.line >= 8 && cfg.line mod 8 = 0);
  assert (cfg.size >= cfg.line);
  let extents, remap =
    match cfg.payload with
    | None -> ([ (0, cfg.line) ], [||])
    | Some extents ->
      assert (
        extents <> []
        && Mira_util.Misc.merge_extents extents = extents
        && List.for_all (fun (off, len) -> off >= 0 && len > 0 && off + len <= cfg.line)
             extents);
      let remap = Array.make cfg.line (-1) and packed = ref 0 in
      List.iter
        (fun (off, len) ->
          for i = off to off + len - 1 do
            remap.(i) <- !packed;
            incr packed
          done)
        extents;
      (extents, remap)
  in
  let slots = cfg.size / slot_bytes cfg in
  let nslots =
    match cfg.structure with
    | Direct | Full_assoc -> max 1 slots
    | Set_assoc k ->
      assert (k >= 1);
      max k slots / k * k
  in
  let tr =
    Transfer.create net far ~side:cfg.side ~line:cfg.line ~extents
      ~section:cfg.sec_name ~lane:("section:" ^ cfg.sec_name)
  in
  let payload = tr.Transfer.payload in
  {
    cfg;
    payload;
    remap;
    tags = Array.make nslots (-1);
    flags = Bytes.make nslots '\000';
    ready_at = Float.Array.make nslots 0.0;
    last_use = Float.Array.make nslots 0.0;
    data = Bytes.create (nslots * payload);
    hit_cost =
      (let p = Mira_sim.Net.params net in
       match cfg.structure with
       | _ when cfg.no_meta -> 0.0
       | Direct -> p.Mira_sim.Params.hit_direct_ns
       | Set_assoc _ -> p.Mira_sim.Params.hit_set_ns
       | Full_assoc -> p.Mira_sim.Params.hit_full_ns);
    native_ns = (Mira_sim.Net.params net).Mira_sim.Params.native_mem_ns;
    table =
      Int_tbl.create
        (match cfg.structure with
        | Full_assoc -> max 16 nslots
        | Direct | Set_assoc _ -> 1);
    fresh = 0;
    discarded = [];
    hand = 0;
    evict_hints = [];
    counts =
      Int_tbl.create
        (match cfg.structure with
        | Full_assoc -> max 16 (2 * nslots)
        | Direct | Set_assoc _ -> 1);
    line_count =
      (match cfg.structure with
      | Full_assoc -> Array.make nslots (ref 0)
      | Direct | Set_assoc _ -> [||]);
    accesses = 0;
    aging_period = 10 * nslots * payload / 8;
    counts_peak = 0;
    probation = -1;
    stats = fresh_stats ();
    tr;
  }

let config t = t.cfg
let stats t = t.stats
let set_attribution t a = Transfer.set_attribution t.tr a

let reset_stats t =
  let d = t.stats in
  d.hits <- 0;
  d.misses <- 0;
  d.late_prefetch <- 0;
  d.evictions <- 0;
  d.hinted_evictions <- 0;
  d.admit_rejects <- 0;
  d.writebacks <- 0;
  d.native_misses <- 0;
  d.hit_ns <- 0.0;
  d.miss_ns <- 0.0;
  d.stall_ns <- 0.0;
  d.bytes_fetched <- 0;
  d.bytes_written <- 0;
  Mira_telemetry.Metrics.hist_reset d.lat_fetch

let publish t reg =
  let m = Mira_telemetry.Metrics.set_counter reg in
  let g = Mira_telemetry.Metrics.set_gauge reg in
  let s = t.stats in
  let p name = Printf.sprintf "section.%s.%s" t.cfg.sec_name name in
  m (p "hits") s.hits;
  m (p "misses") s.misses;
  m (p "late_prefetch") s.late_prefetch;
  m (p "evictions") s.evictions;
  m (p "hinted_evictions") s.hinted_evictions;
  m (p "admit_rejects") s.admit_rejects;
  m (p "writebacks") s.writebacks;
  m (p "native_misses") s.native_misses;
  m (p "bytes_fetched") s.bytes_fetched;
  m (p "bytes_written") s.bytes_written;
  g (p "hit_ns") s.hit_ns;
  g (p "miss_ns") s.miss_ns;
  g (p "stall_ns") s.stall_ns;
  Mira_telemetry.Metrics.set_hist reg (p "fetch_latency") s.lat_fetch

(* Each access count is a tag and a count: 16 B. *)
let metadata_bytes t = (meta_per_slot t.cfg * Array.length t.tags) + (16 * t.counts_peak)

let params t = Mira_sim.Net.params t.tr.Transfer.net

let line_of_addr t addr = addr / t.cfg.line

let has t slot bit = Bytes.get_uint8 t.flags slot land bit <> 0

let set_flags t slot ~on ~off =
  Bytes.set_uint8 t.flags slot ((Bytes.get_uint8 t.flags slot lor on) land lnot off)

(* --- slot lookup ------------------------------------------------------- *)

(* The slot holding line [tag], or -1: no option to allocate per hit. *)
let find_slot t tag =
  match t.cfg.structure with
  | Direct ->
    let slot = tag mod Array.length t.tags in
    if t.tags.(slot) = tag then slot else -1
  | Set_assoc k ->
    let nsets = Array.length t.tags / k in
    let set = tag mod nsets in
    let rec scan i =
      if i >= k then -1
      else begin
        let slot = (set * k) + i in
        if t.tags.(slot) = tag then slot else scan (i + 1)
      end
    in
    scan 0
  | Full_assoc -> ( try Int_tbl.find t.table tag with Not_found -> -1)

(* --- victim selection --------------------------------------------------- *)

(* Dirty data must always reach the far store or it would be lost. *)
let writeback t ~clock slot ~sync =
  if has t slot dirty then begin
    Transfer.writeback t.tr ~clock ~base:(t.tags.(slot) * t.cfg.line) ~data:t.data
      ~off:(slot * t.payload) ~sync;
    set_flags t slot ~on:0 ~off:dirty;
    t.stats.writebacks <- t.stats.writebacks + 1;
    t.stats.bytes_written <- t.stats.bytes_written + t.payload
  end

let release_slot t ~clock slot =
  let tag = t.tags.(slot) in
  if tag >= 0 then begin
    writeback t ~clock slot ~sync:false;
    (match t.cfg.structure with
    | Full_assoc -> Int_tbl.remove t.table tag
    | Direct | Set_assoc _ -> ());
    if has t slot evictable then
      t.stats.hinted_evictions <- t.stats.hinted_evictions + 1;
    t.stats.evictions <- t.stats.evictions + 1;
    t.tags.(slot) <- -1;
    set_flags t slot ~on:0 ~off:(evictable lor refbit)
  end

(* --- access counts (full-assoc) ------------------------------------------- *)

(* A cached line's count cell is also its slot's [line_count], so a
   hit counts without a lookup. *)
let count_cell t tag =
  match Int_tbl.find t.counts tag with
  | c -> c
  | exception Not_found ->
    let c = ref 0 in
    Int_tbl.add t.counts tag c;
    t.counts_peak <- max t.counts_peak (Int_tbl.length t.counts);
    c

(* Counts are read only when a victim is chosen, so they age there: the
   first choice after each [aging_period] accesses halves every count
   and drops the uncached lines' that reach zero (a cached line's cell
   must stay its slot's).  This keeps the halving's allocation off the
   hit path. *)
let age_counts t =
  if t.accesses >= t.aging_period then begin
    t.accesses <- 0;
    Int_tbl.filter_map_inplace
      (fun tag c ->
        c := !c / 2;
        if !c = 0 && not (Int_tbl.mem t.table tag) then None else Some c)
      t.counts
  end

(* Hinted-evictable slots first.  Otherwise CLOCK picks a candidate,
   skipping the probationary slot (the latest demand fill), and the
   probationary line is evicted instead only when it was accessed
   strictly less often: a line touched once cannot push out a hot one,
   yet a tie keeps CLOCK's recency order.  Either way the line faces
   this test once; if it stays, it is an ordinary line from then on,
   which keeps CLOCK's order over a prefetched stream. *)
let pick_victim_full t =
  let rec from_hints = function
    | [] ->
      t.evict_hints <- [];
      None
    | slot :: rest ->
      if t.tags.(slot) >= 0 && has t slot evictable then begin
        t.evict_hints <- rest;
        Some slot
      end
      else from_hints rest
  in
  match from_hints t.evict_hints with
  | Some slot -> slot
  | None ->
    let n = Array.length t.tags in
    let rec sweep budget =
      let slot = t.hand in
      t.hand <- (t.hand + 1) mod n;
      if slot = t.probation && n > 1 then sweep budget
      else if budget = 0 then slot
      else if has t slot refbit then begin
        set_flags t slot ~on:0 ~off:refbit;
        sweep (budget - 1)
      end
      else slot
    in
    let candidate = sweep (2 * n) in
    let p = t.probation in
    t.probation <- -1;
    age_counts t;
    if p >= 0 && !(t.line_count.(p)) < !(t.line_count.(candidate)) then begin
      t.stats.admit_rejects <- t.stats.admit_rejects + 1;
      p
    end
    else candidate

let pick_victim_set t tag k =
  let nsets = Array.length t.tags / k in
  let set = tag mod nsets in
  let best = ref (set * k) in
  let best_score = ref infinity in
  for i = 0 to k - 1 do
    let slot = (set * k) + i in
    let score =
      if t.tags.(slot) < 0 then neg_infinity
      else if has t slot evictable then -1.0
      else Float.Array.get t.last_use slot
    in
    if score < !best_score then begin
      best := slot;
      best_score := score
    end
  done;
  !best

let allocate_slot t ~clock tag =
  match t.cfg.structure with
  | Direct ->
    let slot = tag mod Array.length t.tags in
    release_slot t ~clock slot;
    slot
  | Set_assoc k ->
    let slot = pick_victim_set t tag k in
    release_slot t ~clock slot;
    slot
  | Full_assoc ->
    (match t.discarded with
    | slot :: rest ->
      t.discarded <- rest;
      slot
    | [] when t.fresh < Array.length t.tags ->
      t.fresh <- t.fresh + 1;
      t.fresh - 1
    | [] ->
      let slot = pick_victim_full t in
      release_slot t ~clock slot;
      slot)

(* In a fully associative section a demand fill makes its slot
   probationary; a prefetched line never is. *)
let install t ~clock ~tag ~ready_at ~demand =
  let slot = allocate_slot t ~clock tag in
  (* Every install copies what crossed the wire, write-no-fetch ones
     included (they skip the network, not the copy), straight into the
     slot's packed bytes. *)
  Transfer.fill t.tr ~base:(tag * t.cfg.line) ~dst:t.data ~off:(slot * t.payload);
  Transfer.drain_reconstruction t.tr ~clock;
  t.tags.(slot) <- tag;
  Bytes.set_uint8 t.flags slot refbit;
  Float.Array.set t.ready_at slot ready_at;
  Float.Array.set t.last_use slot (Mira_sim.Clock.now clock);
  (match t.cfg.structure with
  | Full_assoc ->
    Int_tbl.replace t.table tag slot;
    t.line_count.(slot) <- count_cell t tag;
    if demand then t.probation <- slot
  | Direct | Set_assoc _ -> ());
  slot

let install_demand t clock tag ready_at = install t ~clock ~tag ~ready_at ~demand:true

let install_prefetched t clock tag ready_at =
  ignore (install t ~clock ~tag ~ready_at ~demand:false)

let is_resident t tag = find_slot t tag >= 0

(* --- access paths ------------------------------------------------------- *)

let touch t ~clock slot =
  (* Re-using a line cancels a pending eviction hint. *)
  set_flags t slot ~on:refbit ~off:evictable;
  match t.cfg.structure with
  | Full_assoc ->
    t.accesses <- t.accesses + 1;
    incr t.line_count.(slot)
  | Set_assoc _ -> Float.Array.set t.last_use slot (Mira_sim.Clock.now clock)
  | Direct -> ()

(* A hit on a line still in flight: a late prefetch.  The ready time is
   compared in place: handing it to a function boxes it on every hit. *)
let wait_ready t ~clock slot =
  if Float.Array.get t.ready_at slot > Mira_sim.Clock.now clock then begin
    let stall =
      Transfer.wait_ready t.tr ~clock ~name:"late-prefetch"
        (Float.Array.get t.ready_at slot)
    in
    t.stats.late_prefetch <- t.stats.late_prefetch + 1;
    t.stats.stall_ns <- t.stats.stall_ns +. stall
  end

(* Ensure line [tag], which covers [addr], is resident; returns its
   slot.  [for_write_no_fetch] skips the network fetch on a miss. *)
let ensure t ~clock ~addr ~tag ~for_write =
  let p = params t in
  let slot = find_slot t tag in
  if slot >= 0 then begin
    t.stats.hits <- t.stats.hits + 1;
    Mira_sim.Clock.advance clock t.hit_cost;
    t.stats.hit_ns <- t.stats.hit_ns +. t.hit_cost;
    wait_ready t ~clock slot;
    touch t ~clock slot;
    slot
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let start = Mira_sim.Clock.now clock in
    let fill = Transfer.open_fill t.tr in
    Mira_sim.Clock.advance clock t.hit_cost;
    let slot =
      if for_write && t.cfg.write_no_fetch then begin
        (* No fetch: the store covers the whole line (or the compiler
           proved full coverage before any read); local bookkeeping only. *)
        Mira_sim.Clock.advance clock p.Mira_sim.Params.evict_check_ns;
        install t ~clock ~tag ~ready_at:(Mira_sim.Clock.now clock) ~demand:true
      end
      else begin
        let slot =
          Transfer.demand_read t.tr ~clock fill ~addr:(tag * t.cfg.line)
            ~bytes:t.payload ~install:install_demand t tag
        in
        t.stats.bytes_fetched <- t.stats.bytes_fetched + t.payload;
        slot
      end
    in
    let miss_ns =
      Transfer.close_fill t.tr ~clock fill ~start ~hist:t.stats.lat_fetch
        ~name:"demand-fetch" ~key:"addr" ~value:addr
    in
    t.stats.miss_ns <- t.stats.miss_ns +. miss_ns;
    touch t ~clock slot;
    slot
  end

(* The offset of the scalar [addr, addr + len) within its slot's packed
   bytes, [tag] being its line.  The span must lie in one line, and in
   a payload section inside one extent: a slot holds nothing else. *)
let check_span t ~tag ~addr ~len =
  assert (len > 0 && len <= 8);
  let off = addr - (tag * t.cfg.line) in
  assert (off + len <= t.cfg.line);
  if Array.length t.remap = 0 then off
  else begin
    let packed = t.remap.(off) in
    assert (packed >= 0 && t.remap.(off + len - 1) = packed + len - 1);
    packed
  end

(* One scalar access straight into the slot's bytes, no staging blit: a
   load, or with [write] a store of [v] (a load returns the value read,
   a store 0L).  A [native] access was proved resident by the compiler
   and costs a native one; if the proof fails at run time (e.g. an
   over-eager pass), it takes the checked path, so data stays correct
   and the access is charged like a normal one. *)
let access t ~clock ~addr ~len ~native ~write v =
  let tag = line_of_addr t addr in
  let off = check_span t ~tag ~addr ~len in
  let slot = if native then find_slot t tag else -1 in
  let slot =
    if slot >= 0 then begin
      wait_ready t ~clock slot;
      t.stats.hits <- t.stats.hits + 1;
      slot
    end
    else begin
      if native then t.stats.native_misses <- t.stats.native_misses + 1;
      ensure t ~clock ~addr ~tag ~for_write:write
    end
  in
  Mira_sim.Clock.advance clock t.native_ns;
  let at = (slot * t.payload) + off in
  if write then begin
    Mira_util.Bytes_le.set t.data ~off:at ~len v;
    set_flags t slot ~on:dirty ~off:0;
    0L
  end
  else Mira_util.Bytes_le.get t.data ~off:at ~len

let load t ~clock ~addr ~len = access t ~clock ~addr ~len ~native:false ~write:false 0L
let store t ~clock ~addr ~len v = ignore (access t ~clock ~addr ~len ~native:false ~write:true v)

let iter_tags t ~addr ~len fn =
  let first = line_of_addr t addr in
  let last = line_of_addr t (addr + len - 1) in
  for tag = first to last do
    fn tag
  done

(* Prefetch hints mostly name lines that are already resident: return
   before building any request (or allocating) when all of them are. *)
let rec any_absent t tag last =
  tag <= last && ((not (is_resident t tag)) || any_absent t (tag + 1) last)

let prefetch t ~clock ~addr ~len =
  let first = line_of_addr t addr in
  let last = line_of_addr t (addr + len - 1) in
  if any_absent t first last then begin
    let posted =
      Transfer.prefetch t.tr ~clock ~bytes:t.payload ~resident:is_resident
        ~install:install_prefetched t ~first ~stride:1 ~count:(last - first + 1)
    in
    t.stats.bytes_fetched <- t.stats.bytes_fetched + (posted * t.payload)
  end

(* A resident section never evicts, so a hint would only write back
   lines early. *)
let flush_evict t ~clock ~addr ~len =
  if not (resident_section t.cfg) then
    iter_tags t ~addr ~len (fun tag ->
        let slot = find_slot t tag in
        if slot >= 0 then begin
          Mira_sim.Clock.advance clock (params t).Mira_sim.Params.evict_check_ns;
          writeback t ~clock slot ~sync:false;
          set_flags t slot ~on:evictable ~off:0;
          if slot = t.probation then t.probation <- -1;
          match t.cfg.structure with
          | Full_assoc -> t.evict_hints <- slot :: t.evict_hints
          | Direct | Set_assoc _ -> ()
        end)

let flush_range t ~clock ~addr ~len =
  iter_tags t ~addr ~len (fun tag ->
      let slot = find_slot t tag in
      if slot >= 0 then writeback t ~clock slot ~sync:true)

(* Failover recovery: every still-dirty line is re-issued to the (new)
   primary asynchronously, without evicting anything.  Clean lines need
   nothing — their last writeback was replicated before the crash. *)
let flush_all t ~clock =
  Array.iteri
    (fun slot tag -> if tag >= 0 then writeback t ~clock slot ~sync:false)
    t.tags

let discard_range t ~addr ~len =
  iter_tags t ~addr ~len (fun tag ->
      let slot = find_slot t tag in
      if slot >= 0 then begin
        (* Not an eviction in the statistical sense: bypass release_slot
           counters by clearing in place. *)
        (match t.cfg.structure with
        | Full_assoc ->
          Int_tbl.remove t.table tag;
          t.discarded <- slot :: t.discarded
        | Direct | Set_assoc _ -> ());
        t.tags.(slot) <- -1;
        if slot = t.probation then t.probation <- -1;
        Bytes.set_uint8 t.flags slot 0
      end)

let resident t ~addr = find_slot t (line_of_addr t addr) >= 0
