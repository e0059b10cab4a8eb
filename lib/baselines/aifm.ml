module Sim = Mira_sim
module Rt = Mira_runtime
module Tid_map = Mira_util.Tid_map

exception Oom of string

type entry = {
  e_key : int;  (* granule index = addr / gran, with gran per site *)
  e_site : int;
  e_bytes : int;
  e_data : Bytes.t;
  mutable e_dirty : bool;
  mutable e_ref : bool;
}

type t = {
  params : Sim.Params.t;
  net : Sim.Net.t;
  far : Sim.Far_store.t;
  far_space : Sim.Remote_alloc.t;
  local_store : Sim.Far_store.t;
  local_space : Sim.Remote_alloc.t;
  clocks : Sim.Clock.t Tid_map.t;
  gran : int -> int;
  site_gran : (int, int) Hashtbl.t;  (* remembered per site *)
  cache : (int * int, entry) Hashtbl.t;  (* (site, granule) -> entry *)
  fifo : (int * int) Queue.t;  (* second-chance eviction order *)
  ranges : (int, int * int * int) Hashtbl.t;
      (* user addr -> (alloc base, alloc len, user len), both spaces *)
  mutable used_bytes : int;
  mutable meta_bytes : int;
  budget : int;
  profile : Rt.Profile.t;
}

let clock t tid =
  match Tid_map.find_opt t.clocks tid with
  | Some c -> c
  | None ->
    let c = Sim.Clock.create () in
    Tid_map.replace t.clocks tid c;
    c

let granule t site =
  match Hashtbl.find_opt t.site_gran site with
  | Some g -> g
  | None ->
    let g = max 8 (Mira_util.Misc.round_up (t.gran site) 8) in
    Hashtbl.replace t.site_gran site g;
    g

let available t = t.budget - t.meta_bytes

let writeback t ~clock:c entry =
  if entry.e_dirty then begin
    let base = entry.e_key * entry.e_bytes in
    Sim.Far_store.write t.far ~addr:base ~len:entry.e_bytes ~src:entry.e_data
      ~src_off:0;
    (* Fire-and-forget writeback: detached, so no completion to reap. *)
    let sqe =
      Sim.Net.submit t.net ~now:(Sim.Clock.now c) ~detached:true
        (Sim.Net.Request.write ~side:Sim.Net.Two_sided
           ~purpose:Sim.Net.Writeback entry.e_bytes)
    in
    Sim.Clock.advance c sqe.Sim.Net.issue_cpu_ns;
    entry.e_dirty <- false
  end

let evict_until t ~clock:c need =
  (* Second-chance FIFO over cached granules. *)
  let guard = ref (2 * (Queue.length t.fifo + 1)) in
  while t.used_bytes + need > available t && not (Queue.is_empty t.fifo) && !guard > 0 do
    decr guard;
    let key = Queue.pop t.fifo in
    match Hashtbl.find_opt t.cache key with
    | None -> ()
    | Some entry ->
      if entry.e_ref then begin
        entry.e_ref <- false;
        Queue.push key t.fifo
      end
      else begin
        writeback t ~clock:c entry;
        Hashtbl.remove t.cache key;
        t.used_bytes <- t.used_bytes - entry.e_bytes
      end
  done;
  if t.used_bytes + need > available t then
    raise
      (Oom
         (Printf.sprintf
            "AIFM: granule of %d B cannot fit (metadata %d B of %d B budget)"
            need t.meta_bytes t.budget))

let ensure t ~tid ~site ~addr =
  let c = clock t tid in
  let g = granule t site in
  let key = (site, addr / g) in
  match Hashtbl.find_opt t.cache key with
  | Some entry ->
    entry.e_ref <- true;
    entry
  | None ->
    evict_until t ~clock:c g;
    let now = Sim.Clock.now c in
    let sqe =
      Sim.Net.submit t.net ~now ~urgent:true
        (Sim.Net.Request.read ~side:Sim.Net.Two_sided ~purpose:Sim.Net.Demand g)
    in
    Sim.Clock.advance c sqe.Sim.Net.issue_cpu_ns;
    let comp = Sim.Net.await t.net ~now ~id:sqe.Sim.Net.id in
    ignore (Sim.Clock.wait_until c comp.Sim.Net.done_at);
    let data = Bytes.make g '\000' in
    Sim.Far_store.read t.far ~addr:(addr / g * g) ~len:g ~dst:data ~dst_off:0;
    let entry =
      { e_key = addr / g; e_site = site; e_bytes = g; e_data = data;
        e_dirty = false; e_ref = true }
    in
    Hashtbl.replace t.cache key entry;
    Queue.push key t.fifo;
    t.used_bytes <- t.used_bytes + g;
    entry

let create ?(params = Sim.Params.default) ?gran ~local_budget ~far_capacity () =
  let t =
    {
      params;
      net = Sim.Net.create params;
      far = Sim.Far_store.create ~capacity:far_capacity;
      far_space = Sim.Remote_alloc.create ~base:64 ~limit:far_capacity;
      local_store = Sim.Far_store.create ~capacity:far_capacity;
      local_space = Sim.Remote_alloc.create ~base:64 ~limit:far_capacity;
      clocks = Tid_map.create 8;
      gran = (match gran with Some f -> f | None -> fun _ -> 8);
      site_gran = Hashtbl.create 16;
      cache = Hashtbl.create 1024;
      fifo = Queue.create ();
      ranges = Hashtbl.create 64;
      used_bytes = 0;
      meta_bytes = 0;
      budget = local_budget;
      profile = Rt.Profile.create ();
    }
  in
  let deref ~tid =
    let c = clock t tid in
    Sim.Clock.advance c
      (t.params.Sim.Params.aifm_deref_ns +. t.params.Sim.Params.native_mem_ns)
  in
  let load ~tid ~(ptr : Rt.Memsys.ptr) ~len ~native:_ =
    match ptr.Rt.Memsys.space with
    | Rt.Memsys.Local ->
      Sim.Clock.advance (clock t tid) t.params.Sim.Params.native_mem_ns;
      Sim.Far_store.read_le t.local_store ~addr:ptr.Rt.Memsys.addr ~len
    | Rt.Memsys.Far ->
      deref ~tid;
      let entry = ensure t ~tid ~site:ptr.Rt.Memsys.site ~addr:ptr.Rt.Memsys.addr in
      let off = ptr.Rt.Memsys.addr mod entry.e_bytes in
      Mira_util.Bytes_le.get entry.e_data ~off ~len
  in
  let store ~tid ~(ptr : Rt.Memsys.ptr) ~len ~native:_ ~value =
    match ptr.Rt.Memsys.space with
    | Rt.Memsys.Local ->
      Sim.Clock.advance (clock t tid) t.params.Sim.Params.native_mem_ns;
      Sim.Far_store.write_le t.local_store ~addr:ptr.Rt.Memsys.addr ~len value
    | Rt.Memsys.Far ->
      deref ~tid;
      let entry = ensure t ~tid ~site:ptr.Rt.Memsys.site ~addr:ptr.Rt.Memsys.addr in
      let off = ptr.Rt.Memsys.addr mod entry.e_bytes in
      Mira_util.Bytes_le.set entry.e_data ~off ~len value;
      entry.e_dirty <- true
  in
  {
    Rt.Memsys.name = "aifm";
    alloc =
      (fun ~tid ~site ~bytes ~heap ->
        let c = clock t tid in
        Sim.Clock.advance c t.params.Sim.Params.native_op_ns;
        if heap then begin
          let g = granule t site in
          let rounded = Mira_util.Misc.round_up bytes g in
          (* Over-allocate so the user range can start on a granule
             boundary (granule keys are global far addresses / g). *)
          let alloc_len = rounded + g in
          let base = Sim.Remote_alloc.alloc t.far_space alloc_len in
          let addr = Mira_util.Misc.round_up base g in
          Hashtbl.replace t.ranges addr (base, alloc_len, rounded);
          let granules = rounded / g in
          t.meta_bytes <-
            t.meta_bytes
            + (granules * t.params.Sim.Params.aifm_elem_meta_bytes)
            + t.params.Sim.Params.aifm_obj_meta_bytes;
          if t.meta_bytes >= t.budget then
            raise
              (Oom
                 (Printf.sprintf
                    "AIFM: remoteable-pointer metadata (%d B) exceeds local \
                     memory (%d B)"
                    t.meta_bytes t.budget));
          Rt.Profile.add_alloc t.profile ~site ~bytes;
          { Rt.Memsys.space = Rt.Memsys.Far; addr; site }
        end
        else begin
          let addr = Sim.Remote_alloc.alloc t.local_space bytes in
          Hashtbl.replace t.ranges addr (addr, bytes, bytes);
          { Rt.Memsys.space = Rt.Memsys.Local; addr; site }
        end);
    free =
      (fun ~tid ~ptr ->
        Sim.Clock.advance (clock t tid) t.params.Sim.Params.native_op_ns;
        match Hashtbl.find_opt t.ranges ptr.Rt.Memsys.addr with
        | None -> ()
        | Some (base, alloc_len, len) ->
          Hashtbl.remove t.ranges ptr.Rt.Memsys.addr;
          (match ptr.Rt.Memsys.space with
          | Rt.Memsys.Far ->
            let g = granule t ptr.Rt.Memsys.site in
            let granules = len / g in
            t.meta_bytes <-
              t.meta_bytes
              - (granules * t.params.Sim.Params.aifm_elem_meta_bytes)
              - t.params.Sim.Params.aifm_obj_meta_bytes;
            (* Drop cached granules of the object. *)
            for k = ptr.Rt.Memsys.addr / g to (ptr.Rt.Memsys.addr + len - 1) / g do
              match Hashtbl.find_opt t.cache (ptr.Rt.Memsys.site, k) with
              | None -> ()
              | Some entry ->
                Hashtbl.remove t.cache (ptr.Rt.Memsys.site, k);
                t.used_bytes <- t.used_bytes - entry.e_bytes
            done;
            Sim.Remote_alloc.free t.far_space ~addr:base ~len:alloc_len
          | Rt.Memsys.Local ->
            Sim.Remote_alloc.free t.local_space ~addr:base ~len:alloc_len));
    load;
    store;
    prefetch = (fun ~tid:_ ~ptr:_ ~len:_ -> ());
    flush_evict = (fun ~tid:_ ~ptr:_ ~len:_ -> ());
    evict_site = (fun ~tid:_ ~site:_ -> ());
    flush_sites = (fun ~tid:_ ~sites:_ -> ());
    discard_sites = (fun ~tid:_ ~sites:_ -> ());
    clock = (fun ~tid -> clock t tid);
    op_cost = (fun ~tid ns -> Sim.Clock.advance (clock t tid) ns);
    enter =
      (fun ~tid name ->
        Rt.Profile.enter t.profile ~tid ~now:(Sim.Clock.now (clock t tid)) name);
    exit_ =
      (fun ~tid name ->
        Rt.Profile.exit_ t.profile ~tid ~now:(Sim.Clock.now (clock t tid)) name);
    offload_begin = (fun ~tid:_ -> ());
    offload_end = (fun ~tid:_ -> ());
    set_nthreads = (fun _ -> ());
    profile = t.profile;
    net = t.net;
    attribution = Mira_telemetry.Attribution.create ();
    metadata_bytes = (fun () -> t.meta_bytes);
    reset_timing =
      (fun () ->
        Tid_map.iter (fun _ c -> Sim.Clock.reset c) t.clocks;
        Sim.Net.reset_stats t.net;
        Sim.Net.reset_link t.net;
        Rt.Profile.reset t.profile);
    elapsed =
      (fun () -> Tid_map.fold (fun _ c acc -> Float.max acc (Sim.Clock.now c)) t.clocks 0.0);
  }
