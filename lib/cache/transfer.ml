(* How a cache line crosses the data plane.

   [Section] and [Swap_section] differ in slot structure, victim
   policy and cost model, but move lines over the link the same way: a
   traced, urgent demand fill; a writeback with one detached write per
   live parity row; the drain of erasure-decode reads; the wait on a
   line still in flight; and per-line or coalesced prefetch.  Every
   [Net] call of the cache layer lives here, and every stall it causes
   is charged to the ledger under the owning cache's section key. *)

module Net = Mira_sim.Net
module Clock = Mira_sim.Clock
module Cluster = Mira_sim.Cluster
module Attribution = Mira_telemetry.Attribution
module Trace = Mira_telemetry.Trace

type t = {
  net : Net.t;
  far : Cluster.t;
  side : Net.side;
  line : int;  (* bytes per line (page) *)
  extents : (int * int) list;  (* what crosses the wire: [(off, len)] in a line *)
  payload : int;  (* their total bytes *)
  section : string;  (* ledger key *)
  lane : string;  (* trace lane of this cache's spans *)
  mutable attribution : Attribution.t option;
}

let create net far ~side ~line ~extents ~section ~lane =
  let payload = List.fold_left (fun acc (_, len) -> acc + len) 0 extents in
  { net; far; side; line; extents; payload; section; lane; attribution = None }

(* --- line contents --------------------------------------------------------- *)

(* Copy what a fill of the line at [base] brings, its extents, into
   [dst] packed from [off] on. *)
let fill t ~base ~dst ~off =
  Cluster.read_extents t.far ~addr:base ~extents:t.extents ~dst ~dst_off:off

let set_attribution t a = t.attribution <- Some a

let charge t cause stall =
  match t.attribution with
  | None -> ()
  | Some a -> Attribution.charge a ~section:t.section cause stall

(* A blocking fill's stall split into wire, queue and retry parts. *)
let charge_split t (c : Net.completion) stall =
  match t.attribution with
  | None -> ()
  | Some a ->
    Attribution.charge_parts a ~section:t.section ~holders:c.Net.holders
      (Attribution.split_stall ~stall ~wire_ns:c.Net.wire_ns
         ~queue_ns:c.Net.queue_ns ~retry_ns:c.Net.retry_ns)

(* Causal context for a child request of the access currently being
   executed.  [flow] children (detached writebacks, prefetches) link
   with flow arrows only; synchronous children nest under the ambient
   span. *)
let child_ctx ~flow =
  if Trace.enabled () then
    match Trace.current_ctx () with
    | Some c -> Some { c with Trace.sc_flow = flow }
    | None -> None
  else None

let read_req t ?ctx ~node purpose bytes =
  Net.Request.read ~node ?ctx ~side:t.side ~purpose bytes

let write_req t ?ctx ~node bytes =
  Net.Request.write ~node ?ctx ~side:t.side ~purpose:Net.Writeback bytes

(* Fire-and-forget: accounted and fenced, but never reaped. *)
let post_detached t ~clock req =
  let sq = Net.submit t.net ~now:(Clock.now clock) ~detached:true req in
  Clock.advance clock sq.Net.issue_cpu_ns

(* Urgent post, then block on the completion; the wait goes to [cause]. *)
let post_sync t ~clock cause req =
  let now = Clock.now clock in
  let sq = Net.submit t.net ~now ~urgent:true req in
  Clock.advance clock sq.Net.issue_cpu_ns;
  let c = Net.await t.net ~now ~id:sq.Net.id in
  charge t cause
    (Clock.wait_event clock ~ev:(Clock.Net_completion sq.Net.id) c.Net.done_at)

(* --- demand fill ---------------------------------------------------------- *)

(* The span of one demand fill: a child of the ambient deref, or the
   root of its own trace when the access above is not instrumented.
   [None] while tracing is off. *)
type fill = { ctx : Trace.span_ctx; parent : int }

let open_fill t =
  if Trace.enabled () then begin
    let trace, parent =
      match Trace.current_ctx () with
      | Some c -> (c.Trace.sc_trace, c.Trace.sc_span)
      | None -> (Trace.new_trace (), 0)
    in
    Some
      {
        parent;
        ctx =
          {
            Trace.sc_trace = trace;
            sc_span = Trace.new_span ();
            sc_lane = t.lane;
            sc_flow = false;
          };
      }
  end
  else None

(* A fill that had to erasure-decode (its data node down, group within
   quorum) read k survivor chunk ranges instead of one: model the
   extra (k-1)*c bytes as an urgent demand read and charge the wait to
   the [Reconstruct] cause. *)
let drain_reconstruction t ~clock =
  let rb = Cluster.take_reconstruction t.far in
  if rb > 0 then begin
    let now = Clock.now clock in
    post_sync t ~clock Attribution.Reconstruct
      (read_req t ?ctx:(child_ctx ~flow:false)
         ~node:(Cluster.serving_node t.far) Net.Demand rb);
    if Trace.enabled () then
      Trace.complete ~name:"reconstruct" ~cat:"cluster"
        ~lane:(Cluster.service_lane t.far) ~ts_ns:now
        ~dur_ns:(Clock.now clock -. now)
        ~args:[ ("bytes", Mira_telemetry.Json.Int rb) ]
        ()
  end

(* Demand miss on the line at [addr]: the fast synchronous path, an
   urgent submission followed by a blocking await.  The request carries
   the fill's context so its net span nests under the fill.
   [install owner clock key ready_at] places the line [key] (ready at
   the completion time) and returns its slot; a top-level function with
   its [owner] passed beside it, so a fill builds no closure.
   A [Timed_out] completion still installs: [done_at] already charges
   every retry and the final timeout, so the run degrades instead of
   hanging. *)
let demand_read t ~clock fill ~addr ~bytes ~install owner key =
  let now = Clock.now clock in
  let ctx = match fill with Some f -> Some f.ctx | None -> None in
  let sq =
    Net.submit t.net ~now ~urgent:true
      (read_req t ?ctx ~node:(Cluster.node_of_addr t.far ~addr) Net.Demand bytes)
  in
  Clock.advance clock sq.Net.issue_cpu_ns;
  let c = Net.await t.net ~now ~id:sq.Net.id in
  let slot = install owner clock key c.Net.done_at in
  charge_split t c (Clock.wait_event clock ~ev:Clock.Cache_fill c.Net.done_at);
  slot

(* Close a fill begun at [start]: observe its latency into [hist],
   emit the fill span [name] (with one [key]/[value] argument) and the
   [serve] instant naming the physical node that served it (changes at
   failover).  Returns the fill's elapsed ns. *)
let close_fill t ~clock fill ~start ~hist ~name ~key ~value =
  let ns = Clock.now clock -. start in
  (match fill with
  | None -> Mira_telemetry.Metrics.hist_observe ~trace:0 hist ns
  | Some { ctx; parent } ->
    let trace = ctx.Trace.sc_trace and span = ctx.Trace.sc_span in
    Mira_telemetry.Metrics.hist_observe ~trace hist ns;
    Trace.span ~name ~cat:"cache" ~lane:t.lane ~trace ~span ~parent
      ~begin_ns:start ~end_ns:(start +. ns)
      ~args:[ (key, Mira_telemetry.Json.Int value) ]
      ();
    Trace.instant ~name:"serve" ~cat:"cluster"
      ~lane:(Cluster.service_lane t.far) ~ts_ns:(start +. ns)
      ~args:
        [
          ("trace", Mira_telemetry.Json.Int trace);
          ("span", Mira_telemetry.Json.Int span);
        ]
      ());
  ns

(* Wait for a resident line whose fill is still in flight (a late
   prefetch or readahead).  The wait is still wire time; it is traced
   as span [name] under the ambient access.  Returns the stall. *)
let wait_ready t ~clock ~name ready_at =
  let stall = Clock.wait_event clock ~ev:Clock.Cache_fill ready_at in
  if stall > 0.0 then begin
    charge t Attribution.Demand_wire stall;
    if Trace.enabled () then
      match Trace.current_ctx () with
      | Some ctx ->
        let now = Clock.now clock in
        Trace.span ~name ~cat:"cache" ~lane:t.lane ~trace:ctx.Trace.sc_trace
          ~span:(Trace.new_span ()) ~parent:ctx.Trace.sc_span
          ~begin_ns:(now -. stall) ~end_ns:now ()
      | None -> ()
  end;
  stall

(* --- writeback ------------------------------------------------------------ *)

(* Write the line at [base] back from its extents packed in [data] from
   [off] on: store them in the cluster, then post the writeback of
   their bytes — urgent and blocking when [sync] (the wait is charged
   to [Writeback]), detached otherwise. *)
let writeback t ~clock ~base ~data ~off ~sync =
  Cluster.write_extents t.far ~addr:base ~extents:t.extents ~src:data ~src_off:off;
  let node = Cluster.node_of_addr t.far ~addr:base in
  if sync then
    post_sync t ~clock Attribution.Writeback
      (write_req t ?ctx:(child_ctx ~flow:false) ~node t.payload)
  else
    post_detached t ~clock (write_req t ?ctx:(child_ctx ~flow:true) ~node t.payload);
  (* Parity/copy fan-out: one detached write per live parity row, sized
     to the scheme's true bytes-on-wire for these extents (a mirror pays
     the payload per replica; EC pays the touched chunk union per row).
     Asynchronous even for sync flushes: durability is eventual,
     consistency is the cluster's eager parity. *)
  List.iter
    (fun (node, bytes) ->
      post_detached t ~clock (write_req t ?ctx:(child_ctx ~flow:true) ~node bytes))
    (Cluster.replica_payloads t.far ~addr:base ~extents:t.extents);
  (* If the data chunk's node was down, the write had to decode the old
     contents from survivors; that extra read traffic rides detached
     (the writeback itself is not blocked on it). *)
  let rb = Cluster.take_reconstruction t.far in
  if rb > 0 then
    post_detached t ~clock
      (read_req t ?ctx:(child_ctx ~flow:true)
         ~node:(Cluster.serving_node t.far) Net.Demand rb)

(* --- prefetch ------------------------------------------------------------- *)

(* A line is worth prefetching when it lies inside far memory (loop
   preambles and readahead may run past the end) and is not resident. *)
let wanted t ~resident owner tag =
  tag >= 0 && (tag + 1) * t.line <= Cluster.capacity t.far && not (resident owner tag)

(* Asynchronously fetch the wanted lines among the [count] tags
   [first], [first + stride], ... ([bytes] each), flow-linked to the
   access that triggered them; [resident owner tag] tells a line
   resident, [install owner clock tag ready_at] places one (top-level
   functions, as for [demand_read]).  Returns the number of lines
   posted.  Without doorbell batching each line pays its own doorbell
   and round trip, identical in timing to the synchronous model; with
   it, every line is submitted first, the doorbell rings once, and each
   line installs at the completion time of the coalesced transfer it
   rode on. *)
let prefetch t ~clock ~bytes ~resident ~install owner ~first ~stride ~count =
  let ctx = child_ctx ~flow:true in
  let coalesce = (Net.dataplane t.net).Net.coalesce in
  let posted = ref 0 and sqes = ref [] in
  for i = 0 to count - 1 do
    let tag = first + (i * stride) in
    if wanted t ~resident owner tag then begin
      let now = Clock.now clock in
      let node = Cluster.node_of_addr t.far ~addr:(tag * t.line) in
      let sq = Net.submit t.net ~now (read_req t ?ctx ~node Net.Prefetch bytes) in
      Clock.advance clock sq.Net.issue_cpu_ns;
      incr posted;
      if coalesce then sqes := (tag, sq.Net.id) :: !sqes
      else install owner clock tag (Net.await t.net ~now ~id:sq.Net.id).Net.done_at
    end
  done;
  if coalesce then begin
    Net.ring t.net ~now:(Clock.now clock);
    List.iter
      (fun (tag, id) ->
        let c = Net.await t.net ~now:(Clock.now clock) ~id in
        if not (resident owner tag) then install owner clock tag c.Net.done_at)
      (List.rev !sqes)
  end;
  !posted
