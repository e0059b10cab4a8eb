type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : string;
  ev_phase : phase;
  ev_ts_ns : float;
  ev_dur_ns : float;
  ev_lane : string;
  ev_args : (string * Json.t) list;
}

type span = {
  sp_name : string;
  sp_cat : string;
  sp_lane : string;
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_begin_ns : float;
  sp_end_ns : float;
  sp_args : (string * Json.t) list;
  sp_flow_from : string option;
}

(* What the sink buffers: a flat event, or one causal span whole.  The
   b/e (and s/f) lines a span renders as exist only in [to_jsonl]. *)
type record = Event of event | Span of span

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
  sc_lane : string;
  sc_flow : bool;
}

type sink = {
  mutable on : bool;
  mutable buf : record list;  (* newest first *)
  mutable count : int;  (* rendered events buffered *)
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
let count () = sink.count

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

(* Admit [r], which renders as [n] events, whole or not at all.
   Controller events are tiny and carry the decision history; keep
   them past the main cap, but under their own generous cap so a
   pathological decision loop cannot grow the buffer unboundedly. *)
let push ~cat n r =
  if sink.count + n <= sink.limit then begin
    sink.buf <- r :: sink.buf;
    sink.count <- sink.count + n
  end
  else if String.equal cat "controller" && sink.ctrl_count + n <= sink.ctrl_limit
  then begin
    sink.buf <- r :: sink.buf;
    sink.count <- sink.count + n;
    sink.ctrl_count <- sink.ctrl_count + n
  end
  else sink.dropped <- sink.dropped + n

let flat phase ~args ~name ~cat ~lane ~ts_ns ~dur_ns =
  if sink.on then
    push ~cat 1
      (Event
         {
           ev_name = name;
           ev_cat = cat;
           ev_phase = phase;
           ev_ts_ns = ts_ns;
           ev_dur_ns = dur_ns;
           ev_lane = lane;
           ev_args = args;
         })

let complete ?(args = []) ~name ~cat ~lane ~ts_ns ~dur_ns () =
  flat Complete ~args ~name ~cat ~lane ~ts_ns ~dur_ns

let instant ?(args = []) ~name ~cat ~lane ~ts_ns () =
  flat Instant ~args ~name ~cat ~lane ~ts_ns ~dur_ns:0.0

let span ?(args = []) ?(parent = 0) ?flow_from ~name ~cat ~lane ~trace ~span
    ~begin_ns ~end_ns () =
  if sink.on then
    push ~cat
      (if flow_from = None then 2 else 4)
      (Span
         {
           sp_name = name;
           sp_cat = cat;
           sp_lane = lane;
           sp_trace = trace;
           sp_id = span;
           sp_parent = parent;
           sp_begin_ns = begin_ns;
           sp_end_ns = end_ns;
           sp_args = args;
           sp_flow_from = flow_from;
         })

let records () = List.rev sink.buf

let events () =
  List.filter_map (function Event e -> Some e | Span _ -> None) (records ())

let spans () =
  List.filter_map (function Span s -> Some s | Event _ -> None) (records ())

(* Chrome's ts/dur are microseconds; we map 1 simulated ns -> 0.001 us. *)
let render ~lanes line r =
  let hex = Printf.sprintf "0x%x" in
  let obj ~name ~cat ~ph ~ts_ns ~lane extra args =
    let tid = match List.assoc_opt lane lanes with Some t -> t | None -> 0 in
    line
      (Json.Obj
         ([
            ("name", Json.Str name);
            ("cat", Json.Str cat);
            ("ph", Json.Str ph);
            ("ts", Json.Float (ts_ns /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
          ]
         @ extra
         @ if args = [] then [] else [ ("args", Json.Obj args) ]))
  in
  match r with
  | Event ev ->
    let ph, extra =
      match ev.ev_phase with
      | Complete -> ("X", [ ("dur", Json.Float (ev.ev_dur_ns /. 1e3)) ])
      | Instant -> ("i", [ ("s", Json.Str "t") ])
    in
    obj ~name:ev.ev_name ~cat:ev.ev_cat ~ph ~ts_ns:ev.ev_ts_ns ~lane:ev.ev_lane
      extra ev.ev_args
  | Span sp ->
    let name = sp.sp_name and cat = sp.sp_cat and lane = sp.sp_lane in
    (* Async events pair by (cat, id); one async track per trace so
       Perfetto stacks all spans of an access together.  Span and
       parent ids ride in args so validators (and humans) can pair b/e
       records and check nesting without hex-decoding ids.  A flow
       arrow's id is the target span's. *)
    let track = [ ("id", Json.Str (hex sp.sp_trace)) ] in
    let arrow = ("id", Json.Str (hex sp.sp_id)) in
    let at = sp.sp_begin_ns in
    Option.iter
      (fun src -> obj ~name ~cat ~ph:"s" ~ts_ns:at ~lane:src [ arrow ] [])
      sp.sp_flow_from;
    obj ~name ~cat ~ph:"b" ~ts_ns:at ~lane track
      (("span", Json.Int sp.sp_id) :: ("parent", Json.Int sp.sp_parent)
     :: sp.sp_args);
    if sp.sp_flow_from <> None then
      obj ~name ~cat ~ph:"f" ~ts_ns:at ~lane [ arrow; ("bp", Json.Str "e") ] [];
    obj ~name ~cat ~ph:"e" ~ts_ns:sp.sp_end_ns ~lane track
      [ ("span", Json.Int sp.sp_id) ]

(* Lanes in order of first rendered appearance; a span's flow arrow
   starts on its source lane before the span's own lines. *)
let lanes_of rs =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let visit lane =
    if not (Hashtbl.mem seen lane) then begin
      Hashtbl.replace seen lane ();
      order := lane :: !order
    end
  in
  List.iter
    (function
      | Event ev -> visit ev.ev_lane
      | Span sp ->
        Option.iter visit sp.sp_flow_from;
        visit sp.sp_lane)
    rs;
  List.mapi (fun i lane -> (lane, i + 1)) (List.rev !order)

let to_jsonl () =
  let rs = records () in
  let lanes = lanes_of rs in
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
  List.iter (render ~lanes line) rs;
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
               ("events", Json.Int sink.count);
               ("dropped", Json.Int sink.dropped);
             ] );
       ]);
  Buffer.contents buf
