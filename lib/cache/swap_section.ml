type config = { page : int; capacity : int }

type stats = {
  mutable hits : int;
  mutable faults : int;
  mutable readahead_pages : int;
  mutable late_readahead : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable fault_ns : float;
  mutable stall_ns : float;
  mutable bytes_fetched : int;
  lat_fault : Mira_telemetry.Metrics.hist;
}

let fresh_stats () =
  {
    hits = 0;
    faults = 0;
    readahead_pages = 0;
    late_readahead = 0;
    evictions = 0;
    writebacks = 0;
    fault_ns = 0.0;
    stall_ns = 0.0;
    bytes_fetched = 0;
    lat_fault = Mira_telemetry.Metrics.hist_create ();
  }

type page_state = {
  mutable pno : int;  (* page number; -1 = free *)
  mutable dirty : bool;
  mutable refbit : bool;
  mutable data : Bytes.t;  (* allocated at the frame's first install *)
}

type t = {
  mutable cfg : config;
  mutable frames : page_state array;
  mutable ready_at : Float.Array.t;  (* per frame: when its fill lands *)
  mutable table : int array;
      (* page number -> frame, -1 if not resident; grows on install only *)
  mutable free_frames : int list;
  mutable hand : int;
  mutable readahead : int -> int * int;
  mutable extra_fault_ns : float;
  mutable hinted : Mira_util.Index_set.t;  (* frames marked evict-first *)
  stats : stats;
  tr : Transfer.t;
}

let frame_make () = { pno = -1; dirty = false; refbit = false; data = Bytes.empty }

let create net far cfg =
  assert (cfg.page >= 8 && cfg.capacity >= cfg.page);
  let nframes = max 1 (cfg.capacity / cfg.page) in
  {
    cfg;
    frames = Array.init nframes (fun _ -> frame_make ());
    ready_at = Float.Array.make nframes 0.0;
    table = [||];
    free_frames = List.init nframes (fun i -> i);
    hand = 0;
    readahead = (fun _ -> (1, 0));
    extra_fault_ns = 0.0;
    hinted = Mira_util.Index_set.create nframes;
    stats = fresh_stats ();
    tr =
      Transfer.create net far ~side:Mira_sim.Net.One_sided ~line:cfg.page
        ~extents:[ (0, cfg.page) ] ~section:"swap" ~lane:"swap";
  }

let stats t = t.stats
let set_attribution t a = Transfer.set_attribution t.tr a

let reset_stats t =
  let d = t.stats in
  d.hits <- 0;
  d.faults <- 0;
  d.readahead_pages <- 0;
  d.late_readahead <- 0;
  d.evictions <- 0;
  d.writebacks <- 0;
  d.fault_ns <- 0.0;
  d.stall_ns <- 0.0;
  d.bytes_fetched <- 0;
  Mira_telemetry.Metrics.hist_reset d.lat_fault

let publish t reg =
  let m = Mira_telemetry.Metrics.set_counter reg in
  let g = Mira_telemetry.Metrics.set_gauge reg in
  let s = t.stats in
  m "swap.hits" s.hits;
  m "swap.faults" s.faults;
  m "swap.readahead_pages" s.readahead_pages;
  m "swap.late_readahead" s.late_readahead;
  m "swap.evictions" s.evictions;
  m "swap.writebacks" s.writebacks;
  m "swap.bytes_fetched" s.bytes_fetched;
  m "swap.capacity_bytes" t.cfg.capacity;
  g "swap.fault_ns" s.fault_ns;
  g "swap.stall_ns" s.stall_ns;
  Mira_telemetry.Metrics.set_hist reg "swap.fault_latency" s.lat_fault

let config t = t.cfg
let set_readahead t f = t.readahead <- f
let set_extra_fault_ns t ns = t.extra_fault_ns <- ns
let capacity_bytes t = t.cfg.capacity
let params t = Mira_sim.Net.params t.tr.Transfer.net

let frame_of t pno = if pno >= 0 && pno < Array.length t.table then t.table.(pno) else -1

(* Per-page metadata: a PTE-like entry plus LRU state (~32 B). *)
let metadata_bytes t = 32 * Array.length t.frames

let writeback t ~clock frame ~sync =
  if frame.dirty then begin
    Transfer.writeback t.tr ~clock ~base:(frame.pno * t.cfg.page) ~data:frame.data
      ~off:0 ~sync;
    frame.dirty <- false;
    t.stats.writebacks <- t.stats.writebacks + 1
  end

let release_frame t ~clock idx =
  let frame = t.frames.(idx) in
  if frame.pno >= 0 then begin
    writeback t ~clock frame ~sync:false;
    t.table.(frame.pno) <- -1;
    frame.pno <- -1;
    frame.refbit <- false;
    Mira_util.Index_set.remove t.hinted idx;
    t.stats.evictions <- t.stats.evictions + 1
  end

let rec sweep t budget =
  let idx = t.hand in
  t.hand <- (t.hand + 1) mod Array.length t.frames;
  let frame = t.frames.(idx) in
  if budget = 0 then idx
  else if frame.refbit then begin
    frame.refbit <- false;
    sweep t (budget - 1)
  end
  else idx

(* Evict-first (hinted) frames win, lowest frame first; otherwise
   CLOCK.  Only resident frames are ever hinted: every path that frees
   a frame unhints it. *)
let pick_victim t =
  match Mira_util.Index_set.min_elt t.hinted with
  | Some i -> i
  | None -> sweep t (2 * Array.length t.frames)

let allocate_frame t ~clock =
  match t.free_frames with
  | idx :: rest ->
    t.free_frames <- rest;
    idx
  | [] ->
    let idx = pick_victim t in
    release_frame t ~clock idx;
    idx

let install t clock pno ready_at =
  let idx = allocate_frame t ~clock in
  let frame = t.frames.(idx) in
  if Bytes.length frame.data = 0 then frame.data <- Bytes.create t.cfg.page;
  Transfer.fill t.tr ~base:(pno * t.cfg.page) ~dst:frame.data ~off:0;
  Transfer.drain_reconstruction t.tr ~clock;
  frame.pno <- pno;
  frame.dirty <- false;
  Float.Array.set t.ready_at idx ready_at;
  frame.refbit <- true;
  Mira_util.Index_set.remove t.hinted idx;
  let n = Array.length t.table in
  if pno >= n then
    t.table <- Array.append t.table (Array.make (max (pno + 1 - n) (max 64 n)) (-1));
  t.table.(pno) <- idx;
  idx

let is_resident t pno = frame_of t pno >= 0
let install_prefetched t clock pno ready_at = ignore (install t clock pno ready_at)

(* Prefetch [count] pages [first], [first + stride], ...: with doorbell
   batching enabled they are posted as one coalesced message; otherwise
   each page pays its own doorbell. *)
let prefetch_pages t ~clock ~first ~stride ~count =
  let posted =
    Transfer.prefetch t.tr ~clock ~bytes:t.cfg.page ~resident:is_resident
      ~install:install_prefetched t ~first ~stride ~count
  in
  t.stats.bytes_fetched <- t.stats.bytes_fetched + (posted * t.cfg.page);
  t.stats.readahead_pages <- t.stats.readahead_pages + posted

let fault t ~clock ~pno =
  let p = params t in
  let start = Mira_sim.Clock.now clock in
  let fill = Transfer.open_fill t.tr in
  t.stats.faults <- t.stats.faults + 1;
  Mira_sim.Clock.advance clock (p.Mira_sim.Params.page_fault_ns +. t.extra_fault_ns);
  let idx =
    Transfer.demand_read t.tr ~clock fill ~addr:(pno * t.cfg.page) ~bytes:t.cfg.page
      ~install t pno
  in
  t.stats.bytes_fetched <- t.stats.bytes_fetched + t.cfg.page;
  (* Readahead decided while the demand page is in flight; the window
     rides one coalesced doorbell when batching is enabled.  A nonzero
     stride never names the faulting page itself. *)
  let stride, count = t.readahead pno in
  prefetch_pages t ~clock ~first:(pno + stride) ~stride ~count;
  let this_fault_ns =
    Transfer.close_fill t.tr ~clock fill ~start ~hist:t.stats.lat_fault
      ~name:"page-fault" ~key:"page" ~value:pno
  in
  t.stats.fault_ns <- t.stats.fault_ns +. this_fault_ns;
  (* With very small frame pools the readahead itself may have evicted
     the demand page; reinstall so the caller's frame is valid (a real
     kernel locks the faulting page instead — no extra cost charged). *)
  if t.frames.(idx).pno = pno then idx
  else begin
    let idx' = frame_of t pno in
    if idx' >= 0 then idx'
    else install t clock pno (Mira_sim.Clock.now clock)
  end

(* A hit compares the frame's ready time in place: handing it to a
   function would box it on every hit. *)
let ensure t ~clock ~pno =
  let idx = frame_of t pno in
  if idx < 0 then fault t ~clock ~pno
  else begin
    t.stats.hits <- t.stats.hits + 1;
    if Float.Array.get t.ready_at idx > Mira_sim.Clock.now clock then begin
      let stall =
        Transfer.wait_ready t.tr ~clock ~name:"late-readahead"
          (Float.Array.get t.ready_at idx)
      in
      t.stats.late_readahead <- t.stats.late_readahead + 1;
      t.stats.stall_ns <- t.stats.stall_ns +. stall
    end;
    t.frames.(idx).refbit <- true;
    Mira_util.Index_set.remove t.hinted idx;
    idx
  end

let check_span t ~addr ~len =
  assert (len > 0 && len <= 8);
  assert (addr / t.cfg.page = (addr + len - 1) / t.cfg.page)

let load t ~clock ~addr ~len =
  check_span t ~addr ~len;
  let idx = ensure t ~clock ~pno:(addr / t.cfg.page) in
  Mira_sim.Clock.advance clock (params t).Mira_sim.Params.native_mem_ns;
  let frame = t.frames.(idx) in
  (* straight out of the frame: no staging blit *)
  Mira_util.Bytes_le.get frame.data ~off:(addr mod t.cfg.page) ~len

let store t ~clock ~addr ~len v =
  check_span t ~addr ~len;
  let idx = ensure t ~clock ~pno:(addr / t.cfg.page) in
  Mira_sim.Clock.advance clock (params t).Mira_sim.Params.native_mem_ns;
  let frame = t.frames.(idx) in
  Mira_util.Bytes_le.set frame.data ~off:(addr mod t.cfg.page) ~len v;
  frame.dirty <- true

(* [fn idx] for the frame of every resident page covering the range. *)
let iter_frames t ~addr ~len fn =
  for pno = addr / t.cfg.page to (addr + len - 1) / t.cfg.page do
    let idx = frame_of t pno in
    if idx >= 0 then fn idx
  done

let evict_hint t ~clock ~addr ~len =
  iter_frames t ~addr ~len (fun idx ->
      writeback t ~clock t.frames.(idx) ~sync:false;
      Mira_util.Index_set.add t.hinted idx)

let flush_range t ~clock ~addr ~len =
  iter_frames t ~addr ~len (fun idx -> writeback t ~clock t.frames.(idx) ~sync:true)

let discard_range t ~addr ~len =
  iter_frames t ~addr ~len (fun idx ->
      let frame = t.frames.(idx) in
      frame.dirty <- false;
      t.table.(frame.pno) <- -1;
      frame.pno <- -1;
      frame.refbit <- false;
      Mira_util.Index_set.remove t.hinted idx;
      t.free_frames <- idx :: t.free_frames)

(* Failover recovery: re-issue writebacks for all still-dirty pages
   without evicting them (see Section.flush_all). *)
let flush_all t ~clock =
  Array.iter
    (fun frame -> if frame.pno >= 0 then writeback t ~clock frame ~sync:false)
    t.frames

let resize t ~capacity =
  if Array.exists (fun frame -> frame.pno >= 0) t.frames then
    invalid_arg "Swap_section.resize: pages resident";
  assert (capacity >= t.cfg.page);
  let nframes = max 1 (capacity / t.cfg.page) in
  t.frames <- Array.init nframes (fun _ -> frame_make ());
  t.ready_at <- Float.Array.make nframes 0.0;
  t.hinted <- Mira_util.Index_set.create nframes;
  t.free_frames <- List.init nframes (fun i -> i);
  t.hand <- 0;
  t.cfg <- { t.cfg with capacity }

let resident t ~addr = is_resident t (addr / t.cfg.page)

let prefetch_range t ~clock ~addr ~len =
  let first = addr / t.cfg.page in
  let last = (addr + len - 1) / t.cfg.page in
  prefetch_pages t ~clock ~first ~stride:1 ~count:(last - first + 1)
