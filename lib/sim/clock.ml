type event =
  | Net_completion of int
  | Cache_fill
  | Fence
  | Timer

let event_name = function
  | Net_completion _ -> "net_completion"
  | Cache_fill -> "cache_fill"
  | Fence -> "fence"
  | Timer -> "timer"

(* All floats, so the record is stored flat: moving a clock stores its
   time in place, with no boxed float and no write barrier. *)
type times = {
  mutable now : float;
  mutable stalled : float;
  mutable limit : float;  (* infinity when unset *)
  mutable mark : float;  (* [now] at the last [mark] *)
}

type t = { tm : times; mutable observer : (event -> unit) option }

exception Past_limit

let create () =
  { tm = { now = 0.0; stalled = 0.0; limit = infinity; mark = 0.0 }; observer = None }

let now t = t.tm.now
let reached t at = t.tm.now >= at
let mark t = t.tm.mark <- t.tm.now
let since_mark t = t.tm.now -. t.tm.mark
let set_observer t obs = t.observer <- obs
let set_limit t limit = t.tm.limit <- limit

(* A NaN, negative or negative-zero delta would corrupt the monotonic
   time base (and with it every ledger audit); [%h] renders its exact
   bits.  Out of line, so that [advance] inlines: a positive delta is
   an add and the observer match, and only +0.0 of the rest is valid. *)
let[@inline never] invalid_delta dt =
  invalid_arg (Printf.sprintf "Clock.advance: invalid time delta %h ns" dt)

let[@inline] advance t dt =
  if dt > 0.0 then begin
    t.tm.now <- t.tm.now +. dt;
    match t.observer with None -> () | Some f -> f Timer
  end
  else if not (dt = 0.0 && 1.0 /. dt > 0.0) then invalid_delta dt

let wait_event t ~ev deadline =
  let tm = t.tm in
  if deadline > tm.now then begin
    let stall = deadline -. tm.now in
    tm.now <- deadline;
    tm.stalled <- tm.stalled +. stall;
    if deadline > tm.limit then raise Past_limit;
    (match t.observer with None -> () | Some f -> f ev);
    stall
  end
  else 0.0

let wait_until ?(ev = Timer) t deadline = wait_event t ~ev deadline

let stalled_ns t = t.tm.stalled

let reset t =
  t.tm.now <- 0.0;
  t.tm.stalled <- 0.0;
  t.tm.limit <- infinity
