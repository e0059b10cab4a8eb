module Sim = Mira_sim
module Rt = Mira_runtime
module Tid_map = Mira_util.Tid_map

type t = {
  params : Sim.Params.t;
  net : Sim.Net.t;
  store : Sim.Far_store.t;
  space : Sim.Remote_alloc.t;
  clocks : Sim.Clock.t Tid_map.t;
  ranges : (int, int) Hashtbl.t;  (* addr -> len, for free *)
  profile : Rt.Profile.t;
}

let clock t tid =
  match Tid_map.find_opt t.clocks tid with
  | Some c -> c
  | None ->
    let c = Sim.Clock.create () in
    Tid_map.replace t.clocks tid c;
    c

let create ?(params = Sim.Params.default) ~capacity () =
  let t =
    {
      params;
      net = Sim.Net.create params;
      store = Sim.Far_store.create ~capacity;
      space = Sim.Remote_alloc.create ~base:64 ~limit:capacity;
      clocks = Tid_map.create 8;
      ranges = Hashtbl.create 64;
      profile = Rt.Profile.create ();
    }
  in
  let mem ~tid = clock t tid in
  let native ~tid = Sim.Clock.advance (mem ~tid) t.params.Sim.Params.native_mem_ns in
  {
    Rt.Memsys.name = "native";
    alloc =
      (fun ~tid ~site ~bytes ~heap:_ ->
        Sim.Clock.advance (mem ~tid) t.params.Sim.Params.native_op_ns;
        let addr = Sim.Remote_alloc.alloc t.space bytes in
        Hashtbl.replace t.ranges addr bytes;
        Rt.Profile.add_alloc t.profile ~site ~bytes;
        { Rt.Memsys.space = Rt.Memsys.Local; addr; site });
    free =
      (fun ~tid ~ptr ->
        Sim.Clock.advance (mem ~tid) t.params.Sim.Params.native_op_ns;
        match Hashtbl.find_opt t.ranges ptr.Rt.Memsys.addr with
        | None -> ()
        | Some len ->
          Hashtbl.remove t.ranges ptr.Rt.Memsys.addr;
          Sim.Remote_alloc.free t.space ~addr:ptr.Rt.Memsys.addr ~len);
    load =
      (fun ~tid ~ptr ~len ~native:_ ->
        native ~tid;
        Sim.Far_store.read_le t.store ~addr:ptr.Rt.Memsys.addr ~len);
    store =
      (fun ~tid ~ptr ~len ~native:_ ~value ->
        native ~tid;
        Sim.Far_store.write_le t.store ~addr:ptr.Rt.Memsys.addr ~len value);
    prefetch = (fun ~tid:_ ~ptr:_ ~len:_ -> ());
    flush_evict = (fun ~tid:_ ~ptr:_ ~len:_ -> ());
    evict_site = (fun ~tid:_ ~site:_ -> ());
    flush_sites = (fun ~tid:_ ~sites:_ -> ());
    discard_sites = (fun ~tid:_ ~sites:_ -> ());
    clock = (fun ~tid -> mem ~tid);
    op_cost = (fun ~tid ns -> Sim.Clock.advance (mem ~tid) ns);
    enter =
      (fun ~tid name ->
        Rt.Profile.enter t.profile ~tid ~now:(Sim.Clock.now (mem ~tid)) name);
    exit_ =
      (fun ~tid name ->
        Rt.Profile.exit_ t.profile ~tid ~now:(Sim.Clock.now (mem ~tid)) name);
    offload_begin = (fun ~tid:_ -> ());
    offload_end = (fun ~tid:_ -> ());
    set_nthreads = (fun _ -> ());
    profile = t.profile;
    net = t.net;
    attribution = Mira_telemetry.Attribution.create ();
    metadata_bytes = (fun () -> 0);
    reset_timing =
      (fun () ->
        Tid_map.iter (fun _ c -> Sim.Clock.reset c) t.clocks;
        Sim.Net.reset_stats t.net;
        Sim.Net.reset_link t.net;
        Rt.Profile.reset t.profile);
    elapsed =
      (fun () -> Tid_map.fold (fun _ c acc -> Float.max acc (Sim.Clock.now c)) t.clocks 0.0);
  }
