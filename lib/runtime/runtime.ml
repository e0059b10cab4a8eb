module Sim = Mira_sim
module Cache = Mira_cache

type config = {
  params : Sim.Params.t;
  local_budget : int;
  far_capacity : int;
  dataplane : Sim.Net.dp_config;
  cluster : Sim.Cluster.spec;
  tenants : int;
      (* independent app contexts interleaving on the discrete-event
         scheduler; 1 = the historical serialized single-tenant mode *)
}

let config_default ~local_budget ~far_capacity =
  {
    params = Sim.Params.default;
    local_budget;
    far_capacity;
    dataplane = Sim.Net.dp_default;
    cluster = Sim.Cluster.spec_default;
    tenants = 1;
  }

(* Local allocator refill granularity. *)
let alloc_chunk = 1 lsl 20

(* Per-site registry of live allocation ranges.  Iteration order is
   observable (it fixes flush/evict/discard submission order and the
   lost-byte scan, and thereby simulated time), so the old newest-first
   cons list survives as a doubly-linked list — while an address index
   makes release O(1), where [free] used to [List.assoc_opt] and then
   rebuild the whole list. *)
module Regions = struct
  type node = {
    addr : int;
    len : int;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = { mutable head : node option; index : (int, node) Hashtbl.t }

  let create () = { head = None; index = Hashtbl.create 8 }

  let add t ~addr ~len =
    let n = { addr; len; prev = None; next = t.head } in
    (match t.head with Some h -> h.prev <- Some n | None -> ());
    t.head <- Some n;
    Hashtbl.replace t.index addr n

  let find_len t ~addr =
    Option.map (fun n -> n.len) (Hashtbl.find_opt t.index addr)

  let remove t ~addr =
    match Hashtbl.find_opt t.index addr with
    | None -> ()
    | Some n ->
      Hashtbl.remove t.index addr;
      (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
      (match n.next with Some s -> s.prev <- n.prev | None -> ())

  let iter f t =
    let rec go = function
      | None -> ()
      | Some n ->
        f n.addr n.len;
        go n.next
    in
    go t.head
end

(* A thread's state on the access path, resolved once per access. *)
type thread = {
  clock : Sim.Clock.t;
  frames : Profile.stack;
  mutable offload : int;  (* offloaded calls open on the thread *)
}

type t = {
  cfg : config;
  net : Sim.Net.t;
  cluster : Sim.Cluster.t;
  manager : Cache.Manager.t;
  local_store : Sim.Far_store.t;
  local_space : Sim.Remote_alloc.t;
  remote_space : Sim.Remote_alloc.t;
  local_alloc : Local_alloc.t;
  sched : Sim.Sched.t;
  threads : thread Mira_util.Tid_map.t;
  site_ranges : (int, Regions.t) Hashtbl.t;
  mutable allocated : bool;  (* set by the first allocation *)
  lost_bytes : (int, int) Hashtbl.t;  (* site -> far bytes lost to crashes *)
  profile : Profile.t;
  attribution : Mira_telemetry.Attribution.t;
  mutable nthreads : int;
}

(* Address 0 is reserved as the null pointer in both spaces.  Far
   allocations start page-aligned and are rounded up to whole pages so
   that no two objects ever share a swap page or a section line: the
   swap cache and the sections would otherwise hold incoherent copies
   of the overlap (a dirty page write-back could clobber a neighbour
   object cached elsewhere). *)
let space_base = 4096
let local_base = 64

let create cfg =
  if cfg.tenants < 1 then
    invalid_arg (Printf.sprintf "Runtime.create: %d tenants (need >= 1)" cfg.tenants);
  (* The ledger is the one owner of the running tenant's context: the
     net stamps submissions with its tenant, and the scheduler saves
     and restores its context when a task parks. *)
  let attribution = Mira_telemetry.Attribution.create () in
  let net = Sim.Net.create ~dp:cfg.dataplane ~attribution cfg.params in
  (* bounds the lazily grown local store and local address space *)
  let local_capacity = max cfg.far_capacity (1 lsl 20) in
  let cluster = Sim.Cluster.create ~capacity:cfg.far_capacity cfg.cluster in
  let manager =
    Cache.Manager.create net cluster ~budget:cfg.local_budget
      ~page:cfg.params.Sim.Params.page_size
  in
  let remote_space =
    Sim.Remote_alloc.create ~base:space_base ~limit:cfg.far_capacity
  in
  (* Swap readahead, like an optimized kernel swap: a fault also brings
     the 7 pages after it, a window sliding with the fault (not an
     aligned cluster). *)
  Cache.Swap_section.set_readahead (Cache.Manager.swap manager) (fun _ -> (1, 7));
  Cache.Manager.set_attribution manager attribution;
  let sched = Sim.Sched.create ~attribution () in
  {
    cfg;
    net;
    cluster;
    manager;
    local_store = Sim.Far_store.create ~capacity:local_capacity;
    local_space = Sim.Remote_alloc.create ~base:local_base ~limit:local_capacity;
    remote_space;
    local_alloc = Local_alloc.create remote_space ~chunk:alloc_chunk;
    sched;
    threads = Mira_util.Tid_map.create 8;
    site_ranges = Hashtbl.create 32;
    allocated = false;
    lost_bytes = Hashtbl.create 8;
    profile = Profile.create ();
    attribution;
    nthreads = 1;
  }

let manager t = t.manager
let net t = t.net
let attribution t = t.attribution
let cluster t = t.cluster
let far_store t = Sim.Cluster.primary t.cluster
let profile t = t.profile
let params t = t.cfg.params

(* Every thread/tenant clock is a view over the runtime's scheduler;
   free-running (yield hook inert) until tasks are spawned on
   [sched t] and [Sched.run] dispatches more than one of them. *)
let thread t tid =
  match Mira_util.Tid_map.find_opt t.threads tid with
  | Some th -> th
  | None ->
    let th =
      {
        clock = Sim.Sched.clock t.sched ~tenant:tid;
        frames = Profile.stack t.profile ~tid;
        offload = 0;
      }
    in
    Mira_util.Tid_map.replace t.threads tid th;
    th

let clock t tid = (thread t tid).clock
let sched t = t.sched
let tenants t = t.cfg.tenants

let configure t layout =
  if t.allocated then
    invalid_arg "Runtime.configure: the runtime has already allocated";
  Cache.Manager.configure t.manager layout

(* Uniform dispatch: every access path below goes through a
   [Cache_section.handle], so the swap section is not a special case —
   a site no section serves resolves to the swap handle. *)
let route_h t ~tid ~site = Cache.Manager.route_handle t.manager ~tid ~site

let regions_of t site =
  match Hashtbl.find_opt t.site_ranges site with
  | Some r -> r
  | None ->
    let r = Regions.create () in
    Hashtbl.replace t.site_ranges site r;
    r

(* Key subsequent ledger charges under the innermost profiled function
   and the site being accessed; set before any code that may stall
   (including cluster failover handling, so a crash surfacing during an
   access is attributed to the access that observed it). *)
let set_attr_context t th ~tid ~site =
  let fn = Profile.innermost th.frames ~default:"(runtime)" in
  Mira_telemetry.Attribution.set_context t.attribution ~fn ~site;
  Mira_telemetry.Attribution.set_tenant t.attribution tid

(* Root span of one far access.  Trace and span ids are minted up
   front and installed as the ambient context so any child span (cache
   fill, net member, failover recovery) can attach to it; the b/e pair
   itself is emitted retroactively, and only when a child span was
   actually created — trace volume stays proportional to interesting
   events (misses, stalls, recoveries), not to every hit.

   When a request-scoped context is already ambient (a serving
   workload wrapped this access in a per-request span), the access
   joins that trace and nests under the request span instead of
   becoming its own root — that is how the critical-path tooling
   decomposes whole tail requests.  In every pre-existing flow the
   ambient context here is [None], so nothing changes. *)
let begin_access ~tid ~site ~clock:c =
  if not (Mira_telemetry.Trace.enabled ()) then None
  else begin
    let module Tr = Mira_telemetry.Trace in
    let saved = Tr.current_ctx () in
    let trace =
      match saved with
      | Some ctx when not ctx.Tr.sc_flow -> ctx.Tr.sc_trace
      | _ -> Tr.new_trace ()
    in
    let span = Tr.new_span () in
    let stall0 = Sim.Clock.stalled_ns c in
    Tr.set_ctx
      (Some
         {
           Tr.sc_trace = trace;
           sc_span = span;
           sc_lane = "runtime";
           sc_flow = false;
         });
    Some (saved, trace, span, stall0, tid, site, Sim.Clock.now c)
  end

let end_access ~kind ~clock:c st =
  match st with
  | None -> ()
  | Some (saved, trace, span, stall0, tid, site, t0) ->
    let module Tr = Mira_telemetry.Trace in
    Tr.set_ctx saved;
    (* Emission condition: did this access stall its own clock?  Every
       child span (demand fill, late prefetch, member reap, recovery)
       is minted while the access waits, so the per-clock stall delta
       marks "has children" exactly — unlike the global span counter,
       which other tenants advance while this task is parked on the
       scheduler. *)
    if Sim.Clock.stalled_ns c > stall0 then begin
      let parent =
        match saved with
        | Some ctx when not ctx.Tr.sc_flow -> ctx.Tr.sc_span
        | _ -> 0
      in
      Tr.span ~parent ~name:kind ~cat:"runtime" ~lane:"runtime" ~trace ~span
        ~begin_ns:t0 ~end_ns:(Sim.Clock.now c)
        ~args:
          [
            ("site", Mira_telemetry.Json.Int site);
            ("tid", Mira_telemetry.Json.Int tid);
          ]
        ()
    end

(* --- allocation --------------------------------------------------------- *)

let alloc t ~tid ~site ~bytes ~heap =
  t.allocated <- true;
  let th = thread t tid in
  let c = th.clock in
  let p = t.cfg.params in
  Sim.Clock.advance c p.Sim.Params.native_op_ns;
  if heap then begin
    let requested = bytes in
    let bytes = Mira_util.Misc.round_up bytes t.cfg.params.Sim.Params.page_size in
    let addr, refilled = Local_alloc.alloc t.local_alloc bytes in
    if refilled then begin
      (* One RPC to the far node's allocator: an urgent (unbatched)
         two-sided read, awaited synchronously. *)
      let root = begin_access ~tid ~site ~clock:c in
      (* the context [begin_access] installed, when tracing *)
      let rpc_ctx = Option.bind root (fun _ -> Mira_telemetry.Trace.current_ctx ()) in
      let now = Sim.Clock.now c in
      let sqe =
        Sim.Net.submit t.net ~now ~urgent:true
          (Sim.Net.Request.read ?ctx:rpc_ctx ~side:Sim.Net.Two_sided
             ~purpose:Sim.Net.Rpc 16)
      in
      Sim.Clock.advance c sqe.Sim.Net.issue_cpu_ns;
      let comp = Sim.Net.await t.net ~now ~id:sqe.Sim.Net.id in
      let stall =
        Sim.Clock.wait_event c
          ~ev:(Sim.Clock.Net_completion sqe.Sim.Net.id)
          comp.Sim.Net.done_at
      in
      set_attr_context t th ~tid ~site;
      Mira_telemetry.Attribution.charge_parts t.attribution
        ~holders:comp.Sim.Net.holders
        (Mira_telemetry.Attribution.split_stall ~stall
           ~wire_ns:comp.Sim.Net.wire_ns ~queue_ns:comp.Sim.Net.queue_ns
           ~retry_ns:comp.Sim.Net.retry_ns);
      end_access ~kind:"alloc-refill" ~clock:c root
    end;
    Regions.add (regions_of t site) ~addr ~len:bytes;
    Profile.add_alloc t.profile ~site ~bytes;
    (* A resident section holds its whole object: post the object's
       lines now, so no access to it misses.  The requested bytes only:
       nothing reads the page-rounded tail.  Lines a store allocates
       without a fetch would only cross the wire to be overwritten. *)
    (match route_h t ~tid ~site with
    | Cache.Cache_section.Section s ->
      let cfg = Cache.Section.config s in
      if Cache.Section.resident_section cfg && not cfg.Cache.Section.write_no_fetch then
        Cache.Section.prefetch s ~clock:c ~addr ~len:requested
    | Cache.Cache_section.Swap _ -> ());
    { Memsys.space = Memsys.Far; addr; site }
  end
  else begin
    let addr = Sim.Remote_alloc.alloc t.local_space bytes in
    Regions.add (regions_of t site) ~addr ~len:bytes;
    Profile.add_alloc t.profile ~site ~bytes;
    { Memsys.space = Memsys.Local; addr; site }
  end

let free t ~tid ~(ptr : Memsys.ptr) =
  let c = clock t tid in
  Sim.Clock.advance c t.cfg.params.Sim.Params.native_op_ns;
  match ptr.Memsys.space with
  | Memsys.Local ->
    (* Local (stack) allocations are recorded in the site ranges too. *)
    let r = regions_of t ptr.Memsys.site in
    (match Regions.find_len r ~addr:ptr.Memsys.addr with
    | None -> ()
    | Some len ->
      Regions.remove r ~addr:ptr.Memsys.addr;
      Sim.Remote_alloc.free t.local_space ~addr:ptr.Memsys.addr ~len)
  | Memsys.Far ->
    let r = regions_of t ptr.Memsys.site in
    (match Regions.find_len r ~addr:ptr.Memsys.addr with
    | None -> ()
    | Some len ->
      Regions.remove r ~addr:ptr.Memsys.addr;
      (* Drop any cached lines (no write-back needed: object is dead). *)
      Cache.Cache_section.discard_range
        (route_h t ~tid ~site:ptr.Memsys.site)
        ~addr:ptr.Memsys.addr ~len;
      Local_alloc.free t.local_alloc ~addr:ptr.Memsys.addr ~len)

(* --- data access -------------------------------------------------------- *)

(* Far-node-local access while executing an offloaded function.  If
   the access lands on a down node and decodes from survivors, the
   extra reads stay on the far-side fabric: drain the reconstruction
   debt so it is not billed to the compute link later (the cluster's
   ec.* stats still count it). *)
let offload_access t ~clock:c ~addr ~len ~write value =
  let p = t.cfg.params in
  Sim.Clock.advance c (p.Sim.Params.native_mem_ns *. p.Sim.Params.remote_compute_slowdown);
  let v =
    if write then begin
      Sim.Cluster.write_le t.cluster ~addr ~len value;
      0L
    end
    else Sim.Cluster.read_le t.cluster ~addr ~len
  in
  ignore (Sim.Cluster.take_reconstruction t.cluster);
  v

(* Per-object data-loss accounting: wiped far extents (a primary crash
   with no surviving replica) are intersected with the live allocation
   ranges of every site, so the report can say {e which} objects lost
   {e how many} bytes instead of the run raising. *)
let account_lost t =
  match Sim.Cluster.take_lost_extents t.cluster with
  | [] -> ()
  | extents ->
    Hashtbl.iter
      (fun site ranges ->
        Regions.iter
          (fun addr len ->
            List.iter
              (fun (ea, el) ->
                let lo = max addr ea and hi = min (addr + len) (ea + el) in
                if hi > lo then
                  let cur =
                    Option.value ~default:0 (Hashtbl.find_opt t.lost_bytes site)
                  in
                  Hashtbl.replace t.lost_bytes site (cur + (hi - lo)))
              extents)
          ranges)
      t.site_ranges

(* The cluster sync hook on the access fast path: O(1) when no
   crash/recovery is due ([next_event_at] guard inside
   [Manager.check_cluster]). *)
let sync_cluster t ~clock:c =
  if Sim.Clock.reached c (Sim.Cluster.next_event_at t.cluster) then begin
    Cache.Manager.check_cluster t.manager ~clock:c;
    account_lost t
  end

(* One load, or with [write] one store of [value] (a load returns the
   value read, a store 0L).  The thread's state is resolved once.  A
   far access outside an offloaded call charges its overhead beyond a
   native access to the profiled frames and the site, and its misses
   (the handle's miss counter delta) to the site. *)
let access t ~tid ~(ptr : Memsys.ptr) ~len ~native ~write value =
  let th = thread t tid in
  let c = th.clock and addr = ptr.Memsys.addr and site = ptr.Memsys.site in
  match ptr.Memsys.space with
  | Memsys.Local ->
    Sim.Clock.advance c t.cfg.params.Sim.Params.native_mem_ns;
    if write then begin
      Sim.Far_store.write_le t.local_store ~addr ~len value;
      0L
    end
    else Sim.Far_store.read_le t.local_store ~addr ~len
  | Memsys.Far when th.offload > 0 -> offload_access t ~clock:c ~addr ~len ~write value
  | Memsys.Far ->
    set_attr_context t th ~tid ~site;
    let root = begin_access ~tid ~site ~clock:c in
    sync_cluster t ~clock:c;
    Profile.touch th.frames ~site;
    Sim.Clock.mark c;
    let h = route_h t ~tid ~site in
    let mb = Cache.Cache_section.misses h in
    let v = Cache.Cache_section.access h ~clock:c ~addr ~len ~native ~write value in
    let overhead =
      Float.max 0.0 (Sim.Clock.since_mark c -. t.cfg.params.Sim.Params.native_mem_ns)
    in
    Profile.charge th.frames ~ns:overhead;
    if overhead > 0.0 then Profile.add_site_overhead t.profile ~site ~ns:overhead;
    let misses = Cache.Cache_section.misses h - mb in
    if misses > 0 then Profile.add_site_misses t.profile ~site ~n:misses;
    end_access ~kind:(if write then "store" else "load") ~clock:c root;
    v

(* A hint ([prefetch_range] or [evict_hint]) on a far object, outside
   an offloaded call. *)
let hint t ~tid ~(ptr : Memsys.ptr) ~len f =
  match ptr.Memsys.space with
  | Memsys.Local -> ()
  | Memsys.Far ->
    let th = thread t tid in
    if th.offload = 0 then
      f (route_h t ~tid ~site:ptr.Memsys.site) ~clock:th.clock ~addr:ptr.Memsys.addr ~len

(* [f handle addr len] over every live range of [sites], in order. *)
let iter_site_ranges t ~tid ~sites f =
  List.iter (fun site -> Regions.iter (f (route_h t ~tid ~site)) (regions_of t site)) sites

let evict_site t ~tid ~site =
  let c = clock t tid in
  iter_site_ranges t ~tid ~sites:[ site ] (fun h addr len ->
      Cache.Cache_section.evict_hint h ~clock:c ~addr ~len)

let flush_sites t ~tid ~sites =
  let c = clock t tid in
  iter_site_ranges t ~tid ~sites (fun h addr len ->
      Cache.Cache_section.flush_range h ~clock:c ~addr ~len)

let discard_sites t ~tid ~sites =
  iter_site_ranges t ~tid ~sites (fun h addr len ->
      Cache.Cache_section.discard_range h ~addr ~len)

(* --- misc --------------------------------------------------------------- *)

let op_cost t ~tid ns =
  let th = thread t tid in
  let scaled =
    if th.offload > 0 then ns *. t.cfg.params.Sim.Params.remote_compute_slowdown
    else ns
  in
  Sim.Clock.advance th.clock scaled

let reset_timing t =
  Mira_util.Tid_map.iter (fun _ th -> Sim.Clock.reset th.clock) t.threads;
  Sim.Sched.reset_stats t.sched;
  Sim.Net.reset_stats t.net;
  Sim.Net.reset_link t.net;
  Cache.Manager.reset_stats t.manager;
  Profile.reset t.profile;
  Mira_telemetry.Attribution.reset t.attribution

let elapsed t =
  Mira_util.Tid_map.fold (fun _ th acc -> Float.max acc (Sim.Clock.now th.clock)) t.threads 0.0

(* The audit-side stall total: what the thread clocks actually spent in
   [wait_until].  The attribution ledger's total can only be <= this
   (application-level synchronization — parallel-region joins — also
   stalls clocks but is not far-memory time). *)
let clock_stall_ns t =
  Mira_util.Tid_map.fold (fun _ th acc -> acc +. Sim.Clock.stalled_ns th.clock) t.threads 0.0

(* Pull-model telemetry: flatten the whole runtime's statistics —
   network, swap, every live section, allocator and profiler gauges —
   into a metrics registry for machine-readable reports. *)
let lost_bytes_total t =
  account_lost t;
  Hashtbl.fold (fun _ n acc -> acc + n) t.lost_bytes 0

let lost_bytes_by_site t =
  account_lost t;
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) t.lost_bytes []
  |> List.sort compare

let publish t reg =
  Sim.Net.publish t.net reg;
  Cache.Manager.publish t.manager reg;
  Mira_telemetry.Metrics.set_counter reg "runtime.live_far_bytes"
    (Sim.Remote_alloc.live_bytes t.remote_space);
  Mira_telemetry.Metrics.set_counter reg "runtime.nthreads" t.nthreads;
  Mira_telemetry.Metrics.set_counter reg "runtime.tenants" t.cfg.tenants;
  Sim.Sched.publish t.sched reg;
  Mira_telemetry.Metrics.set_gauge reg "runtime.elapsed_ns" (elapsed t);
  Mira_telemetry.Metrics.set_counter reg "runtime.lost_bytes" (lost_bytes_total t);
  Mira_telemetry.Metrics.set_counter reg "runtime.degraded"
    (if Sim.Cluster.degraded t.cluster then 1 else 0);
  List.iter
    (fun (site, n) ->
      Mira_telemetry.Metrics.set_counter reg
        (Printf.sprintf "runtime.lost_bytes.site%d" site)
        n)
    (lost_bytes_by_site t);
  Mira_telemetry.Metrics.set_gauge reg "runtime.stall_ns"
    (Mira_telemetry.Attribution.total_ns t.attribution);
  Mira_telemetry.Metrics.set_gauge reg "runtime.clock_stall_ns"
    (clock_stall_ns t);
  Mira_telemetry.Attribution.publish t.attribution reg

let memsys t =
  {
    Memsys.name = "mira";
    alloc = (fun ~tid ~site ~bytes ~heap -> alloc t ~tid ~site ~bytes ~heap);
    free = (fun ~tid ~ptr -> free t ~tid ~ptr);
    load = (fun ~tid ~ptr ~len ~native -> access t ~tid ~ptr ~len ~native ~write:false 0L);
    store =
      (fun ~tid ~ptr ~len ~native ~value ->
        ignore (access t ~tid ~ptr ~len ~native ~write:true value));
    prefetch = (fun ~tid ~ptr ~len -> hint t ~tid ~ptr ~len Cache.Cache_section.prefetch_range);
    flush_evict = (fun ~tid ~ptr ~len -> hint t ~tid ~ptr ~len Cache.Cache_section.evict_hint);
    evict_site = (fun ~tid ~site -> evict_site t ~tid ~site);
    flush_sites = (fun ~tid ~sites -> flush_sites t ~tid ~sites);
    discard_sites = (fun ~tid ~sites -> discard_sites t ~tid ~sites);
    clock = (fun ~tid -> clock t tid);
    op_cost = (fun ~tid ns -> op_cost t ~tid ns);
    enter =
      (fun ~tid name ->
        Profile.enter t.profile ~tid ~now:(Sim.Clock.now (clock t tid)) name);
    exit_ =
      (fun ~tid name ->
        Profile.exit_ t.profile ~tid ~now:(Sim.Clock.now (clock t tid)) name);
    offload_begin =
      (fun ~tid ->
        let th = thread t tid in
        th.offload <- th.offload + 1);
    offload_end =
      (fun ~tid ->
        let th = thread t tid in
        if th.offload > 0 then th.offload <- th.offload - 1);
    set_nthreads = (fun n -> t.nthreads <- max 1 n);
    profile = t.profile;
    net = t.net;
    attribution = t.attribution;
    metadata_bytes = (fun () -> Cache.Manager.metadata_bytes t.manager);
    reset_timing = (fun () -> reset_timing t);
    elapsed = (fun () -> elapsed t);
  }
