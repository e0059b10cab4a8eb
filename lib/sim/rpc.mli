(** Offload RPC transport (compute node -> far-memory node).

    Implements the cost side of §4.8: an offloaded call ships its
    arguments, runs the body on the (slower) far-node CPU, and ships the
    return value back.  The body's execution time is supplied by the
    caller (the interpreter runs the function with far-node cost mode);
    this module accounts for the transport. *)

type call_cost = {
  send_done_at : float;  (** when the far node may start executing *)
  fence_wait_ns : float;
      (** time spent waiting on the writeback fence before the
          arguments could ship (0 when nothing was outstanding) *)
}

val issue : Net.t -> now:float -> args_bytes:int -> call_cost
(** Begin an offloaded call at [now].  Issues a [Net.fence ~dir:Write]
    first: argument shipping is ordered after every outstanding
    writeback, so the far node never observes stale data because a
    fire-and-forget flush was still in flight. *)

val complete : Net.t -> body_done_at:float -> ret_bytes:int -> float
(** Ship the return value; result is the absolute completion time the
    local caller waits for. *)
