module Remote_alloc = Mira_sim.Remote_alloc

type t = {
  remote : Remote_alloc.t;
  chunk : int;
  mutable buffer : Remote_alloc.range list;
  mutable refills : int;
}

let align8 n = (n + 7) land lnot 7

let create remote ~chunk =
  assert (chunk > 0);
  { remote; chunk; buffer = []; refills = 0 }

let take t len =
  match Remote_alloc.take t.buffer len with
  | Some (addr, buffer) ->
    t.buffer <- buffer;
    Some addr
  | None -> None

let alloc t len =
  let len = align8 (max 8 len) in
  match take t len with
  | Some addr -> (addr, false)
  | None ->
    (* Refill in big chunks; fall back to the exact size when the far
       address space cannot serve a whole chunk. *)
    let grab, base =
      let want = max t.chunk len in
      match Remote_alloc.alloc t.remote want with
      | base -> (want, base)
      | exception Out_of_memory -> (len, Remote_alloc.alloc t.remote len)
    in
    t.refills <- t.refills + 1;
    t.buffer <- Remote_alloc.insert t.buffer { addr = base; len = grab };
    (match take t len with Some addr -> (addr, true) | None -> assert false)

let free t ~addr ~len =
  t.buffer <- Remote_alloc.insert t.buffer { addr; len = align8 (max 8 len) }

let refills t = t.refills
