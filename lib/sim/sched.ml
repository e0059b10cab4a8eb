(* Deterministic discrete-event scheduler: N tenant tasks interleave
   on simulated time.

   Each tenant owns a [Clock] attached to this scheduler.  Whenever a
   task moves its clock forward (compute, a typed blocking event), the
   clock's observer performs the [Yield] effect: the task's
   continuation is parked in the event queue keyed by

       (time in integer ticks, tenant id, submission seqno)

   and the globally earliest task resumes.  Shared resources (the
   section cache, the net in-flight window, the far cluster) therefore
   always observe calls in nondecreasing simulated-time order, and the
   interleaving is a pure function of the clocks — two runs with the
   same seeds replay byte-identically.

   When the moving task would itself be the earliest entry, the yield
   is elided: parking it and popping the queue would resume this very
   task with the trace and ledger context it had just saved, so the
   task simply continues in place.  The elided step still bumps
   the seqno and counts as a block and a dispatch, so every counter
   equals that of the always-yield scheduler.

   Time keys are fixed point in units of 2^-16 ns (the attribution
   ledger's tick), an exact total order even when two float timestamps
   differ below float printing precision.  They are immediate ints, so
   a clock move boxes nothing: 2^62 ticks reach ~19 simulated hours.  The floats
   inside [Clock] remain the source of truth for all arithmetic: with
   a single live task the observer never fires, so a 1-tenant
   scheduled run is bit-identical to the pre-scheduler serialized
   clock. *)

module Attribution = Mira_telemetry.Attribution

type event = Clock.event =
  | Net_completion of int
  | Cache_fill
  | Fence
  | Timer

let ticks_per_ns = 65536.0
let ticks_of_ns ns = int_of_float (Float.round (ns *. ticks_per_ns))

(* A parked task keeps the ambient context it had: the trace context
   and the attribution ledger's fn/site/tenant are process state, so
   without the save/restore a resumed tenant would inherit whatever
   request span and ledger key the previously-running tenant left, and
   its child spans, stalls and net submissions would land under the
   wrong tenant.  A freshly started task restores nothing but a [None]
   trace context: it establishes its own. *)
type resume =
  | Start of (unit -> unit)
  | Resume of {
      k : (unit, unit) Effect.Deep.continuation;
      ctx : Mira_telemetry.Trace.span_ctx option;
      fn : string;
      site : int;
      ledger_tenant : int;
    }

type entry = { at : int; tenant : int; seq : int; resume : resume }

(* Strict total order: earliest tick first, ties by tenant id, then by
   submission order.  Determinism depends on nothing else.  The seqno
   is globally unique, so this is a strict total order over entries —
   which is exactly why the event queue can be a binary heap: with no
   ties, heap pop order coincides with the old scan-for-min order. *)
let precedes ~at ~tenant ~seq b =
  at < b.at
  || (at = b.at && (tenant < b.tenant || (tenant = b.tenant && seq < b.seq)))
[@@inline]

let entry_before a b = precedes ~at:a.at ~tenant:a.tenant ~seq:a.seq b

(* Block counters are indexed by event kind, in the name order
   [block_counts] reports. *)
let block_kinds = [| Cache_fill; Fence; Net_completion 0; Timer |]

let block_index = function
  | Cache_fill -> 0
  | Fence -> 1
  | Net_completion _ -> 2
  | Timer -> 3

type t = {
  queue : entry Mira_util.Min_heap.t;  (* ordered by [entry_before] *)
  mutable seq : int;
  mutable live : int;  (* spawned tasks that have not returned *)
  mutable running : bool;
  mutable current : int;  (* tenant of the task being run *)
  mutable dispatched : int;
  clocks : (int, Clock.t) Hashtbl.t;
  blocks : int array;  (* yields per event kind, by [block_index] *)
  ledger : Attribution.t;
}

type _ Effect.t += Yield : { at : int; ev : event } -> unit Effect.t

let create ?(attribution = Attribution.create ()) () =
  {
    queue = Mira_util.Min_heap.create ~le:entry_before;
    seq = 0;
    live = 0;
    running = false;
    current = 0;
    dispatched = 0;
    clocks = Hashtbl.create 8;
    blocks = Array.make (Array.length block_kinds) 0;
    ledger = attribution;
  }

let tenants t = Hashtbl.length t.clocks
let live t = t.live

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let count_block t ev =
  let i = block_index ev in
  t.blocks.(i) <- t.blocks.(i) + 1

(* Would the running task, parked at [at] now, be the next entry out?
   The parked entry's tenant is the running task's, whichever clock
   moved. *)
let runs_next t ~at =
  Mira_util.Min_heap.is_empty t.queue
  || precedes ~at ~tenant:t.current ~seq:(t.seq + 1)
       (Mira_util.Min_heap.top t.queue)

let clock t ~tenant =
  match Hashtbl.find_opt t.clocks tenant with
  | Some c -> c
  | None ->
    let c = Clock.create () in
    (* The yield point: only fires while the scheduler loop is live and
       more than one task could be affected by the move — so clocks
       handed out before [run], after it returns, or in a 1-tenant run
       behave exactly like free-running clocks.  A task that would run
       next anyway continues in place (see the header). *)
    Clock.set_observer c
      (Some
         (fun ev ->
           if t.running && t.live > 1 then begin
             let at = ticks_of_ns (Clock.now c) in
             if runs_next t ~at then begin
               count_block t ev;
               ignore (next_seq t);
               t.dispatched <- t.dispatched + 1
             end
             else Effect.perform (Yield { at; ev })
           end));
    Hashtbl.replace t.clocks tenant c;
    c

let push t entry = Mira_util.Min_heap.push t.queue entry

let spawn ?at_ns t ~tenant f =
  let at =
    match at_ns with
    | Some ns -> ticks_of_ns ns
    | None -> ticks_of_ns (Clock.now (clock t ~tenant))
  in
  t.live <- t.live + 1;
  push t { at; tenant; seq = next_seq t; resume = Start f }

let run t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let handler tenant =
    {
      Effect.Deep.retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.running <- false;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield { at; ev } ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                count_block t ev;
                push t
                  {
                    at;
                    tenant;
                    seq = next_seq t;
                    resume =
                      Resume
                        {
                          k;
                          ctx = Mira_telemetry.Trace.current_ctx ();
                          fn = Attribution.context_fn t.ledger;
                          site = Attribution.context_site t.ledger;
                          ledger_tenant = Attribution.context_tenant t.ledger;
                        };
                  })
          | _ -> None);
    }
  in
  let rec loop () =
    match Mira_util.Min_heap.pop t.queue with
    | None -> ()
    | Some e ->
      t.dispatched <- t.dispatched + 1;
      t.current <- e.tenant;
      (match e.resume with
      | Start f ->
        Mira_telemetry.Trace.set_ctx None;
        Effect.Deep.match_with f () (handler e.tenant)
      | Resume r ->
        Mira_telemetry.Trace.set_ctx r.ctx;
        Attribution.set_context t.ledger ~fn:r.fn ~site:r.site;
        Attribution.set_tenant t.ledger r.ledger_tenant;
        Effect.Deep.continue r.k ());
      loop ()
  in
  loop ();
  Mira_telemetry.Trace.set_ctx None;
  t.running <- false

let dispatched t = t.dispatched

let block_counts t =
  Array.to_list block_kinds
  |> List.filter_map (fun ev ->
         let n = t.blocks.(block_index ev) in
         if n > 0 then Some (Clock.event_name ev, n) else None)

let publish t reg =
  Mira_telemetry.Metrics.set_counter reg "sched.tenants" (tenants t);
  Mira_telemetry.Metrics.set_counter reg "sched.dispatched" t.dispatched;
  List.iter
    (fun (k, v) ->
      Mira_telemetry.Metrics.set_counter reg (Printf.sprintf "sched.block.%s" k) v)
    (block_counts t)

let reset_stats t =
  t.dispatched <- 0;
  Array.fill t.blocks 0 (Array.length t.blocks) 0
