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

type t = {
  mutable now : float;
  mutable stalled : float;
  mutable limit : float;  (* infinity when unset *)
  mutable observer : (event -> float -> unit) option;
}

exception Past_limit

let create () = { now = 0.0; stalled = 0.0; limit = infinity; observer = None }
let now t = t.now
let set_observer t obs = t.observer <- obs
let set_limit t limit = t.limit <- limit

let notify t ev =
  match t.observer with None -> () | Some f -> f ev t.now

(* A NaN delta fails every comparison and a negative-zero delta passes
   [>= 0.0], so both used to slip through the old [assert] and could
   corrupt the monotonic time base (and with it every ledger audit).
   Reject them loudly instead.  [%h] renders the exact bit pattern. *)
let check_delta fn dt =
  if not (dt >= 0.0) || (dt = 0.0 && 1.0 /. dt < 0.0) then
    invalid_arg (Printf.sprintf "Clock.%s: invalid time delta %h ns" fn dt)

let advance t dt =
  check_delta "advance" dt;
  if dt > 0.0 then begin
    t.now <- t.now +. dt;
    notify t Timer
  end

let wait_event t ~ev deadline =
  if deadline > t.now then begin
    let stall = deadline -. t.now in
    t.now <- deadline;
    t.stalled <- t.stalled +. stall;
    if deadline > t.limit then raise Past_limit;
    notify t ev;
    stall
  end
  else 0.0

let wait_until ?(ev = Timer) t deadline = wait_event t ~ev deadline

let stalled_ns t = t.stalled

let reset t =
  t.now <- 0.0;
  t.stalled <- 0.0;
  t.limit <- infinity
