type layout = {
  sections : (Section.config * int list) list;
  per_thread : (int * int array) list;
}

(* A site's route: thread [i] uses [r_handles.(min i (n-1))], so a
   shared route has one handle. *)
type route = { r_site : int; r_handles : Cache_section.handle array }

let route_cache_size = 256

type t = {
  net : Mira_sim.Net.t;
  cluster : Mira_sim.Cluster.t;
  budget : int;
  page : int;
  swap : Swap_section.t;
  swap_h : Cache_section.handle;
  sections : (int, Section.t) Hashtbl.t;
  routes : (int, Cache_section.handle array) Hashtbl.t;  (* routed sites *)
  route_cache : route array;  (* direct-mapped by site id *)
  swap_route : route;  (* the cache's empty entry: no site, swap *)
  mutable configured : bool;
  mutable section_bytes : int;
  mutable attribution : Mira_telemetry.Attribution.t option;
  mutable recovering : bool;
      (* Reentrancy guard: a flush or fence wait during recovery may
         run other tenants, whose accesses must not start a second
         recovery. *)
}

let create net cluster ~budget ~page =
  assert (budget >= page);
  let swap = Swap_section.create net cluster { Swap_section.page; capacity = budget } in
  let swap_h = Cache_section.Swap swap in
  let swap_route = { r_site = min_int; r_handles = [| swap_h |] } in
  {
    net;
    cluster;
    budget;
    page;
    swap;
    swap_h;
    sections = Hashtbl.create 16;
    routes = Hashtbl.create 16;
    route_cache = Array.make route_cache_size swap_route;
    swap_route;
    configured = false;
    section_bytes = 0;
    attribution = None;
    recovering = false;
  }

let swap t = t.swap

let set_attribution t a =
  t.attribution <- Some a;
  Swap_section.set_attribution t.swap a;
  Hashtbl.iter (fun _ s -> Section.set_attribution s a) t.sections

let charge t cause ns =
  match t.attribution with
  | None -> ()
  | Some a -> Mira_telemetry.Attribution.charge a cause ns

let sections t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sections []
  |> List.sort (fun a b ->
         compare (Section.config a).Section.sec_id (Section.config b).Section.sec_id)

let handles t =
  List.map (fun s -> Cache_section.Section s) (sections t) @ [ t.swap_h ]

(* Process any cluster crash/recovery events due by now.  Called by
   the runtime's access path, so a crash due before the first access is
   handled at that access. *)
let check_cluster t ~clock =
  let now = Mira_sim.Clock.now clock in
  if Mira_sim.Cluster.next_event_at t.cluster <= now && not t.recovering then begin
    t.recovering <- true;
    let incidents = Mira_sim.Cluster.poll t.cluster ~now in
    List.iter
      (fun incident ->
        match incident with
        | Mira_sim.Cluster.Failover { failed; epoch; down; _ } ->
          (* Requests in flight to the dead node fail now (epoch fence);
             still-dirty lines are re-issued — reads of the dead node's
             chunks will reconstruct from survivors — and the writeback
             fence is waited out; recovery time is simulated time,
             charged to the run.  Traffic aimed at the dead node while
             it is down stalls on its per-node outage window. *)
          let start = Mira_sim.Clock.now clock in
          ignore (Mira_sim.Net.fail_inflight t.net ~now:start);
          let until =
            Mira_sim.Cluster.node_down_until t.cluster ~node:failed
          in
          if until > start then
            Mira_sim.Net.set_node_down t.net ~node:failed ~until;
          List.iter (fun h -> Cache_section.flush_all h ~clock) (handles t);
          let done_at =
            Mira_sim.Net.fence ~dir:Mira_sim.Net.Request.Write t.net
              ~now:(Mira_sim.Clock.now clock)
          in
          let stall =
            Mira_sim.Clock.wait_event clock ~ev:Mira_sim.Clock.Fence done_at
          in
          charge t Mira_telemetry.Attribution.Failover_recovery stall;
          let recovery_ns = Mira_sim.Clock.now clock -. start in
          Mira_sim.Cluster.observe_recovery t.cluster recovery_ns;
          (if Mira_telemetry.Trace.enabled () then begin
             (* Recovery runs inside the access that tripped the epoch
                check, so the span nests under the ambient deref when
                there is one; otherwise it roots its own trace. *)
             let module Tr = Mira_telemetry.Trace in
             let trace, parent =
               match Tr.current_ctx () with
               | Some c -> (c.Tr.sc_trace, c.Tr.sc_span)
               | None -> (Tr.new_trace (), 0)
             in
             Tr.span ~name:"failover" ~cat:"cluster" ~lane:"cluster" ~trace
               ~span:(Tr.new_span ()) ~parent ~begin_ns:start
               ~end_ns:(start +. recovery_ns)
               ~args:
                 [
                   ("failed_node", Mira_telemetry.Json.Int failed);
                   ("serving_node",
                    Mira_telemetry.Json.Int
                      (Mira_sim.Cluster.serving_node t.cluster));
                   ("epoch", Mira_telemetry.Json.Int epoch);
                   ("down", Mira_telemetry.Json.Int down);
                 ]
               ()
           end)
        | Mira_sim.Cluster.Data_lost { node; lost_bytes; epoch; down; _ } ->
          (* Past quorum: in-flight requests fail, and until enough
             nodes return every post completes [Node_down] after the
             detection timer.  The run continues degraded; the runtime
             drains [take_lost_extents] for per-object accounting. *)
          ignore (Mira_sim.Net.fail_inflight t.net ~now:(Mira_sim.Clock.now clock));
          let until = Mira_sim.Cluster.down_until t.cluster in
          if until > now then
            for node = 0 to (Mira_sim.Cluster.spec t.cluster).nodes - 1 do
              Mira_sim.Net.set_node_down t.net ~node ~until
            done;
          if Mira_telemetry.Trace.enabled () then
            Mira_telemetry.Trace.instant ~name:"degraded" ~cat:"cluster"
              ~lane:"cluster"
              ~ts_ns:(Mira_sim.Clock.now clock)
              ~args:
                [
                  ("node", Mira_telemetry.Json.Int node);
                  ("lost_bytes", Mira_telemetry.Json.Int lost_bytes);
                  ("epoch", Mira_telemetry.Json.Int epoch);
                  ("down", Mira_telemetry.Json.Int down);
                ]
              ()
        | Mira_sim.Cluster.Recovered { node; resync_bytes; whole; _ } ->
          (* Rebuild traffic rides the data plane asynchronously: the
             returning node is repopulated by decoding survivors
             without stalling the application. *)
          if resync_bytes > 0 then begin
            let req =
              Mira_sim.Net.Request.write ~node ~side:Mira_sim.Net.One_sided
                ~purpose:Mira_sim.Net.Writeback resync_bytes
            in
            let sqe =
              Mira_sim.Net.submit t.net ~now:(Mira_sim.Clock.now clock)
                ~detached:true req
            in
            Mira_sim.Clock.advance clock sqe.Mira_sim.Net.issue_cpu_ns
          end;
          if Mira_telemetry.Trace.enabled () then
            Mira_telemetry.Trace.instant ~name:"node-recovered" ~cat:"cluster"
              ~lane:"cluster"
              ~ts_ns:(Mira_sim.Clock.now clock)
              ~args:
                [
                  ("node", Mira_telemetry.Json.Int node);
                  ("resync_bytes", Mira_telemetry.Json.Int resync_bytes);
                  ("whole", Mira_telemetry.Json.Bool whole);
                ]
              ())
      incidents;
    t.recovering <- false
  end

let configure t (layout : layout) =
  if t.configured then invalid_arg "Manager.configure: the layout is already set";
  t.configured <- true;
  List.iter
    (fun ((cfg : Section.config), sites) ->
      if Hashtbl.mem t.sections cfg.sec_id then
        failwith (Printf.sprintf "section %d already exists" cfg.sec_id);
      if t.section_bytes + cfg.size > t.budget - t.page then
        failwith
          (Printf.sprintf "section %d (%d B) exceeds local budget (%d B used of %d)"
             cfg.sec_id cfg.size t.section_bytes t.budget);
      let section = Section.create t.net t.cluster cfg in
      Option.iter (Section.set_attribution section) t.attribution;
      Hashtbl.replace t.sections cfg.sec_id section;
      t.section_bytes <- t.section_bytes + cfg.size;
      List.iter
        (fun site -> Hashtbl.replace t.routes site [| Cache_section.Section section |])
        sites)
    layout.sections;
  List.iter
    (fun (site, ids) ->
      let handle id =
        match Hashtbl.find_opt t.sections id with
        | Some s -> Cache_section.Section s
        | None ->
          invalid_arg (Printf.sprintf "Manager.configure: site %d: no section %d" site id)
      in
      if ids = [||] then
        invalid_arg
          (Printf.sprintf "Manager.configure: site %d needs at least one section id" site);
      Hashtbl.replace t.routes site (Array.map handle ids))
    layout.per_thread;
  Swap_section.resize t.swap ~capacity:(max t.page (t.budget - t.section_bytes));
  Array.fill t.route_cache 0 route_cache_size t.swap_route

let find_section t ~id = Hashtbl.find_opt t.sections id

(* Resolved once per site, then reused: the layout never changes after
   [configure]. *)
let route_handle t ~tid ~site =
  let slot = site land (route_cache_size - 1) in
  let r =
    let r = t.route_cache.(slot) in
    if r.r_site = site then r
    else begin
      let r_handles =
        match Hashtbl.find_opt t.routes site with
        | Some hs -> hs
        | None -> t.swap_route.r_handles
      in
      let r = { r_site = site; r_handles } in
      t.route_cache.(slot) <- r;
      r
    end
  in
  let hs = r.r_handles in
  hs.(Int.min tid (Array.length hs - 1))

let metadata_bytes t =
  List.fold_left
    (fun acc h -> acc + Cache_section.metadata_bytes h)
    0 (handles t)

let reset_stats t = List.iter Cache_section.reset_stats (handles t)

let publish t reg =
  List.iter (fun h -> Cache_section.publish h reg) (handles t);
  Mira_sim.Cluster.publish t.cluster reg;
  Mira_telemetry.Metrics.set_gauge reg "cache.metadata_bytes"
    (float_of_int (metadata_bytes t));
  Mira_telemetry.Metrics.set_counter reg "cache.section_bytes" t.section_bytes
