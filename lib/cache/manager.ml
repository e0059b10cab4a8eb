type t = {
  net : Mira_sim.Net.t;
  cluster : Mira_sim.Cluster.t;
  budget : int;
  page : int;
  swap : Swap_section.t;
  swap_h : Cache_section.handle;
  sections : (int, Section.t) Hashtbl.t;
  site_to_section : (int, int) Hashtbl.t;
  mutable section_bytes : int;
  mutable generation : int;  (* bumped whenever routing may change *)
  mutable attribution : Mira_telemetry.Attribution.t option;
  mutable recovering : bool;
      (* Reconfiguration guard: [add_section] must not interleave
         with failover recovery (a crash mid-[add_section] would race
         the rebudget against recovery writebacks). *)
}

let create net cluster ~budget ~page =
  assert (budget >= page);
  let swap = Swap_section.create net cluster { Swap_section.page; capacity = budget } in
  {
    net;
    cluster;
    budget;
    page;
    swap;
    swap_h = Cache_section.Swap swap;
    sections = Hashtbl.create 16;
    site_to_section = Hashtbl.create 16;
    section_bytes = 0;
    generation = 0;
    attribution = None;
    recovering = false;
  }

let generation t = t.generation
let bump t = t.generation <- t.generation + 1
let swap t = t.swap
let swap_handle t = t.swap_h

let swap_capacity t = max t.page (t.budget - t.section_bytes)

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

(* Process any cluster crash/recovery events due by now.  Called at
   [add_section] (and by the runtime's access path), so
   incidents are handled before the cache or budget state changes —
   reconfiguration is effectively paused during recovery. *)
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
             let span = Tr.new_span () in
             Tr.begin_span ~name:"failover" ~cat:"cluster" ~lane:"cluster"
               ~ts_ns:start ~trace ~span ~parent
               ~args:
                 [
                   ("failed_node", Mira_telemetry.Json.Int failed);
                   ("serving_node",
                    Mira_telemetry.Json.Int
                      (Mira_sim.Cluster.serving_node t.cluster));
                   ("epoch", Mira_telemetry.Json.Int epoch);
                   ("down", Mira_telemetry.Json.Int down);
                 ]
               ();
             Tr.end_span ~name:"failover" ~cat:"cluster" ~lane:"cluster"
               ~ts_ns:(start +. recovery_ns) ~trace ~span ()
           end)
        | Mira_sim.Cluster.Data_lost { node; lost_bytes; epoch; down; _ } ->
          (* Past quorum: in-flight requests fail, and until enough
             nodes return every post completes [Node_down] after the
             detection timer.  The run continues degraded; the runtime
             drains [take_lost_extents] for per-object accounting. *)
          ignore (Mira_sim.Net.fail_inflight t.net ~now:(Mira_sim.Clock.now clock));
          let until = Mira_sim.Cluster.down_until t.cluster in
          if until > now then Mira_sim.Net.set_down t.net ~until;
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

let add_section t ~clock (cfg : Section.config) =
  check_cluster t ~clock;
  if Hashtbl.mem t.sections cfg.Section.sec_id then
    Error (Printf.sprintf "section %d already exists" cfg.Section.sec_id)
  else if t.section_bytes + cfg.Section.size > t.budget - t.page then
    Error
      (Printf.sprintf "section %d (%d B) exceeds local budget (%d B used of %d)"
         cfg.Section.sec_id cfg.Section.size t.section_bytes t.budget)
  else begin
    let section = Section.create t.net t.cluster cfg in
    (match t.attribution with
    | Some a -> Section.set_attribution section a
    | None -> ());
    Hashtbl.replace t.sections cfg.Section.sec_id section;
    bump t;
    t.section_bytes <- t.section_bytes + cfg.Section.size;
    Swap_section.resize t.swap ~capacity:(swap_capacity t) ~clock;
    Ok section
  end

let find_section t ~id = Hashtbl.find_opt t.sections id

let assign_site t ~site ~sec_id =
  if not (Hashtbl.mem t.sections sec_id) then
    invalid_arg (Printf.sprintf "Manager.assign_site: no section %d" sec_id);
  Hashtbl.replace t.site_to_section site sec_id;
  bump t

let route_handle t ~site =
  match Hashtbl.find_opt t.site_to_section site with
  | Some id -> Cache_section.Section (Hashtbl.find t.sections id)
  | None -> t.swap_h

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
