type phase = Complete | Instant | Begin | End | Flow_start | Flow_end

type event = {
  ev_name : string;
  ev_cat : string;
  ev_phase : phase;
  ev_ts_ns : float;
  ev_dur_ns : float;
  ev_lane : string;
  ev_trace : int;
  ev_span : int;
  ev_parent : int;
  ev_args : (string * Json.t) list;
}

(* A span context travels with an access across layers: the runtime
   mints it at deref time, the cache fill path forwards it into the
   net request record, and the net layer stamps member spans with it
   at reap time.  [sc_flow] marks asynchronous causality (prefetch,
   detached writeback): such children are linked by flow arrows only
   and get no nesting parent, so the strict parent-containment
   invariant holds for every parented span. *)
type span_ctx = {
  sc_trace : int;
  sc_span : int;
  sc_site : int;
  sc_lane : string;
  sc_flow : bool;
}

type sink = {
  mutable on : bool;
  mutable buf : event list;  (* newest first *)
  mutable count : int;
  mutable limit : int;
  mutable ctrl_count : int;  (* controller events admitted past [limit] *)
  mutable ctrl_limit : int;
  mutable dropped : int;
  mutable next_trace : int;
  mutable next_span : int;
  mutable ctx : span_ctx option;
}

let sink =
  {
    on = false;
    buf = [];
    count = 0;
    limit = 200_000;
    ctrl_count = 0;
    ctrl_limit = 20_000;
    dropped = 0;
    next_trace = 0;
    next_span = 0;
    ctx = None;
  }

let clear () =
  sink.buf <- [];
  sink.count <- 0;
  sink.ctrl_count <- 0;
  sink.dropped <- 0;
  sink.next_trace <- 0;
  sink.next_span <- 0;
  sink.ctx <- None

let enable () =
  clear ();
  sink.on <- true

let disable () =
  sink.on <- false;
  sink.ctx <- None

let enabled () = sink.on
let set_limit n = sink.limit <- max 1 n
let set_ctrl_limit n = sink.ctrl_limit <- max 0 n
let dropped () = sink.dropped

let mark () =
  let buf = sink.buf and count = sink.count and ctrl_count = sink.ctrl_count in
  let dropped = sink.dropped and ctx = sink.ctx in
  fun () ->
    sink.buf <- buf;
    sink.count <- count;
    sink.ctrl_count <- ctrl_count;
    sink.dropped <- dropped;
    sink.ctx <- ctx

let new_trace () =
  sink.next_trace <- sink.next_trace + 1;
  sink.next_trace

let new_span () =
  sink.next_span <- sink.next_span + 1;
  sink.next_span

let current_ctx () = sink.ctx
let set_ctx c = sink.ctx <- c

let push ev =
  (* Controller events are tiny and carry the decision history; keep
     them past the main cap, but under their own generous cap so a
     pathological decision loop cannot grow the buffer unboundedly. *)
  if sink.count < sink.limit then begin
    sink.buf <- ev :: sink.buf;
    sink.count <- sink.count + 1
  end
  else if String.equal ev.ev_cat "controller" && sink.ctrl_count < sink.ctrl_limit
  then begin
    sink.buf <- ev :: sink.buf;
    sink.count <- sink.count + 1;
    sink.ctrl_count <- sink.ctrl_count + 1
  end
  else sink.dropped <- sink.dropped + 1

let complete ?(args = []) ~name ~cat ~lane ~ts_ns ~dur_ns () =
  if sink.on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Complete;
        ev_ts_ns = ts_ns;
        ev_dur_ns = dur_ns;
        ev_lane = lane;
        ev_trace = 0;
        ev_span = 0;
        ev_parent = 0;
        ev_args = args;
      }

let instant ?(args = []) ~name ~cat ~lane ~ts_ns () =
  if sink.on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Instant;
        ev_ts_ns = ts_ns;
        ev_dur_ns = 0.0;
        ev_lane = lane;
        ev_trace = 0;
        ev_span = 0;
        ev_parent = 0;
        ev_args = args;
      }

let begin_span ?(args = []) ?(parent = 0) ~name ~cat ~lane ~ts_ns ~trace ~span
    () =
  if sink.on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Begin;
        ev_ts_ns = ts_ns;
        ev_dur_ns = 0.0;
        ev_lane = lane;
        ev_trace = trace;
        ev_span = span;
        ev_parent = parent;
        ev_args = args;
      }

let end_span ?(args = []) ~name ~cat ~lane ~ts_ns ~trace ~span () =
  if sink.on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = End;
        ev_ts_ns = ts_ns;
        ev_dur_ns = 0.0;
        ev_lane = lane;
        ev_trace = trace;
        ev_span = span;
        ev_parent = 0;
        ev_args = args;
      }

let flow_start ~name ~cat ~lane ~ts_ns ~trace ~id () =
  if sink.on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Flow_start;
        ev_ts_ns = ts_ns;
        ev_dur_ns = 0.0;
        ev_lane = lane;
        ev_trace = trace;
        ev_span = id;
        ev_parent = 0;
        ev_args = [];
      }

let flow_end ~name ~cat ~lane ~ts_ns ~trace ~id () =
  if sink.on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Flow_end;
        ev_ts_ns = ts_ns;
        ev_dur_ns = 0.0;
        ev_lane = lane;
        ev_trace = trace;
        ev_span = id;
        ev_parent = 0;
        ev_args = [];
      }

let events () = List.rev sink.buf

(* Chrome's ts/dur are microseconds; we map 1 simulated ns -> 0.001 us. *)
let event_to_json ~lanes ev =
  let tid = match List.assoc_opt ev.ev_lane lanes with Some t -> t | None -> 0 in
  let ph =
    match ev.ev_phase with
    | Complete -> "X"
    | Instant -> "i"
    | Begin -> "b"
    | End -> "e"
    | Flow_start -> "s"
    | Flow_end -> "f"
  in
  let base =
    [
      ("name", Json.Str ev.ev_name);
      ("cat", Json.Str ev.ev_cat);
      ("ph", Json.Str ph);
      ("ts", Json.Float (ev.ev_ts_ns /. 1e3));
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
    ]
  in
  let extra =
    match ev.ev_phase with
    | Complete -> [ ("dur", Json.Float (ev.ev_dur_ns /. 1e3)) ]
    | Instant -> [ ("s", Json.Str "t") ]
    | Begin | End ->
      (* Async events pair by (cat, id); one async track per trace so
         Perfetto stacks all spans of an access together. *)
      [ ("id", Json.Str (Printf.sprintf "0x%x" ev.ev_trace)) ]
    | Flow_start -> [ ("id", Json.Str (Printf.sprintf "0x%x" ev.ev_span)) ]
    | Flow_end ->
      [
        ("id", Json.Str (Printf.sprintf "0x%x" ev.ev_span));
        ("bp", Json.Str "e");
      ]
  in
  let args =
    (* Span and parent ids ride in args so validators (and humans) can
       pair b/e records and check nesting without hex-decoding ids. *)
    let injected =
      match ev.ev_phase with
      | Begin ->
        [ ("span", Json.Int ev.ev_span); ("parent", Json.Int ev.ev_parent) ]
      | End -> [ ("span", Json.Int ev.ev_span) ]
      | _ -> []
    in
    let all = injected @ ev.ev_args in
    if all = [] then [] else [ ("args", Json.Obj all) ]
  in
  Json.Obj (base @ extra @ args)

let lanes_of evs =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if not (Hashtbl.mem seen ev.ev_lane) then begin
        Hashtbl.replace seen ev.ev_lane ();
        order := ev.ev_lane :: !order
      end)
    evs;
  List.mapi (fun i lane -> (lane, i + 1)) (List.rev !order)

let to_jsonl () =
  let evs = events () in
  let lanes = lanes_of evs in
  let buf = Buffer.create 4096 in
  let line j =
    Json.to_buffer buf j;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (lane, tid) ->
      line
        (Json.Obj
           [
             ("name", Json.Str "thread_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int 1);
             ("tid", Json.Int tid);
             ("args", Json.Obj [ ("name", Json.Str lane) ]);
           ]))
    lanes;
  List.iter (fun ev -> line (event_to_json ~lanes ev)) evs;
  line
    (Json.Obj
       [
         ("name", Json.Str "mira_trace_summary");
         ("ph", Json.Str "M");
         ("pid", Json.Int 1);
         ("tid", Json.Int 0);
         ( "args",
           Json.Obj
             [
               ("events", Json.Int (List.length evs));
               ("dropped", Json.Int sink.dropped);
             ] );
       ]);
  Buffer.contents buf
