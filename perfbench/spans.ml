(* Outside-in host-time instrumentation: the host clock, a calibration
   pass that tracks the host's current speed, and, for the traced run,
   phase spans and a counting wrapper around the memory system.

   Phase spans (name, start, end, parent) are kept in memory and
   written out when the benchmark exits.  Boundaries crossed millions
   of times per run (the interpreter's calls into the memory system)
   are not one span per call: they are counted and timed in a
   [counter] and recorded as a single aggregate child span, so self
   times stay exact.  Nothing here touches simulated time. *)

module Memsys = Mira_runtime.Memsys

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* CPU seconds of this (single-threaded) process.  Unlike the wall
   clock, this leaves out time the host gives to other tenants. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- host speed ---------------------------------------------------------- *)

(* A fixed host workload: hashing, allocation and list traversal over a
   few MB, the kind of work the simulator does, in code no change to the
   repository can speed up.  On a shared host the simulator's CPU time
   for the same work drifts by up to 2x within seconds, as other tenants
   load the core and its caches, and this pass drifts with it.  (A pass
   over a tenth of the data, or a pointer chase through 32 MB, tracked
   the drift worse.) *)
let calibration_pass () =
  let n = 1 lsl 15 in
  let h = Hashtbl.create n in
  let acc = ref 0 in
  for i = 0 to (8 * n) - 1 do
    let k = (i * 0x9E3779B1) land ((4 * n) - 1) in
    match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h k i
  done;
  ignore (Sys.opaque_identity (!acc + List.length (List.rev (List.init n float_of_int))))

(* CPU seconds of one pass on the reference host. *)
let pass_ref = 0.030

(* Durations (s) of every pass run so far, and their total. *)
let passes = ref []
let sampled = ref 0.0

let sample () =
  let c0 = cpu_s () in
  calibration_pass ();
  let s = cpu_s () -. c0 in
  passes := s :: !passes;
  sampled := !sampled +. s

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l and n = List.length l in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile, for reports. *)
let quantile q l =
  let a = sorted l and n = List.length l in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (q *. float n)))

(* A raw host duration scaled to the reference host by the median pass
   so far. *)
let at_ref s = s *. pass_ref /. median !passes

(* While [time] runs, a pass is sampled every [period] seconds of the
   process's user time. *)
let period = 0.5

let () = Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> sample ()))

let arm v = ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = v; it_value = v })

let timing = ref false

(* [f ()] and its host CPU seconds, the passes sampled during it
   excluded.  A pass runs just before and just after [f], and every
   [period] during it.  [f] starts from a collected heap, so it pays
   for no earlier garbage. *)
let time f =
  assert (not !timing);
  timing := true;
  sample ();
  Gc.full_major ();
  let c0 = cpu_s () and s0 = !sampled in
  arm period;
  let r =
    Fun.protect f ~finally:(fun () ->
        arm 0.0;
        timing := false)
  in
  let cpu = cpu_s () -. c0 -. (!sampled -. s0) in
  sample ();
  (r, cpu)

(* [f ()] and the factor that scales the host times measured in it to
   the reference host: [pass_ref] over the median pass sampled during
   [f].  The shorter the phase, the closer it follows drift; the more
   passes, the less one slow pass moves the median. *)
let phase f =
  let n0 = List.length !passes in
  let r = f () in
  let during = List.filteri (fun i _ -> i < List.length !passes - n0) !passes in
  (r, pass_ref /. median during)

(* --- phase spans -------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 = root *)
  start_ns : float;
  mutable stop_ns : float;
  calls : int;  (* > 1 only for aggregate spans *)
}

let enabled = ref false
let recorded : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let open_span name ~start_ns ~calls =
  let s =
    { id = !next_id; name; parent = List.hd !stack; start_ns; stop_ns = start_ns; calls }
  in
  incr next_id;
  s

let with_span name f =
  if not !enabled then f ()
  else begin
    let s = open_span name ~start_ns:(now_ns ()) ~calls:1 in
    stack := s.id :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
  end

(* Many calls across one boundary, summed: a child of the current span
   laid out to end now, with the summed duration. *)
let aggregate name ~calls ~ns =
  if !enabled then begin
    let stop = now_ns () in
    let s = open_span name ~start_ns:(stop -. ns) ~calls in
    s.stop_ns <- stop;
    recorded := s :: !recorded
  end

let duration s = s.stop_ns -. s.start_ns

(* Self time: a span's duration minus its children's. *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. duration s))
    !recorded;
  List.rev_map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    !recorded

(* Per-name totals of self time (ns), largest first. *)
let self_by_name () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %.0f, \
         \"end_ns\": %.0f, \"calls\": %d, \"self_ns\": %.0f}\n"
        s.id s.name s.parent s.start_ns s.stop_ns s.calls self)
    (self_times ());
  close_out oc

(* --- the interpreter -> runtime boundary ------------------------------- *)

(* Host cost of one clock read.  A timed call's interval holds about
   one read's worth of the timer itself, which [wrap]'s users take out. *)
let clock_read_ns () =
  let n = 200_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now_ns ()))
  done;
  (now_ns () -. t0) /. float n

type counter = { mutable calls : int; mutable ns : float }

let counter () = { calls = 0; ns = 0.0 }

(* The same memory system with every closure the interpreter calls
   counted and timed. *)
let wrap c (ms : Memsys.t) : Memsys.t =
  let done_ t0 =
    c.calls <- c.calls + 1;
    c.ns <- c.ns +. (now_ns () -. t0)
  in
  let timed f =
    let t0 = now_ns () in
    let r = f () in
    done_ t0;
    r
  in
  {
    ms with
    Memsys.alloc =
      (fun ~tid ~site ~bytes ~heap ->
        timed (fun () -> ms.Memsys.alloc ~tid ~site ~bytes ~heap));
    free = (fun ~tid ~ptr -> timed (fun () -> ms.Memsys.free ~tid ~ptr));
    load =
      (fun ~tid ~ptr ~len ~native ->
        let t0 = now_ns () in
        let v = ms.Memsys.load ~tid ~ptr ~len ~native in
        done_ t0;
        v);
    store =
      (fun ~tid ~ptr ~len ~native ~value ->
        let t0 = now_ns () in
        ms.Memsys.store ~tid ~ptr ~len ~native ~value;
        done_ t0);
    prefetch =
      (fun ~tid ~ptr ~len -> timed (fun () -> ms.Memsys.prefetch ~tid ~ptr ~len));
    flush_evict =
      (fun ~tid ~ptr ~len ->
        timed (fun () -> ms.Memsys.flush_evict ~tid ~ptr ~len));
    evict_site =
      (fun ~tid ~site -> timed (fun () -> ms.Memsys.evict_site ~tid ~site));
    flush_sites =
      (fun ~tid ~sites -> timed (fun () -> ms.Memsys.flush_sites ~tid ~sites));
    discard_sites =
      (fun ~tid ~sites -> timed (fun () -> ms.Memsys.discard_sites ~tid ~sites));
    clock = (fun ~tid -> timed (fun () -> ms.Memsys.clock ~tid));
    op_cost =
      (fun ~tid ns ->
        let t0 = now_ns () in
        ms.Memsys.op_cost ~tid ns;
        done_ t0);
    enter = (fun ~tid fn -> timed (fun () -> ms.Memsys.enter ~tid fn));
    exit_ = (fun ~tid fn -> timed (fun () -> ms.Memsys.exit_ ~tid fn));
    offload_begin = (fun ~tid -> timed (fun () -> ms.Memsys.offload_begin ~tid));
    offload_end = (fun ~tid -> timed (fun () -> ms.Memsys.offload_end ~tid));
  }
