type call_cost = {
  send_done_at : float;
  fence_wait_ns : float;
}

(* Argument shipping is ordered after every outstanding writeback: the
   far node must observe current data before it runs the offloaded
   body.  The old API left that to caller discipline ([push] defaults
   to fire-and-forget); the data-plane [fence] makes it explicit. *)
let issue net ~now ~args_bytes =
  let barrier = Net.fence ~dir:Net.Request.Write net ~now in
  let sq =
    Net.submit net ~now:barrier ~urgent:true
      (Net.Request.write ~side:Net.Two_sided ~purpose:Net.Rpc args_bytes)
  in
  let c = Net.await net ~now:barrier ~id:sq.Net.id in
  {
    send_done_at = c.Net.done_at +. (Net.params net).Params.rpc_overhead_ns;
    fence_wait_ns = barrier -. now;
  }

let complete net ~body_done_at ~ret_bytes =
  let sq =
    Net.submit net ~now:body_done_at ~urgent:true
      (Net.Request.read ~side:Net.Two_sided ~purpose:Net.Rpc ret_bytes)
  in
  let c = Net.await net ~now:body_done_at ~id:sq.Net.id in
  c.Net.done_at
