type range = { addr : int; len : int }

type t = {
  remote : Mira_sim.Remote_alloc.t;
  chunk : int;
  mutable buffer : range list;  (* address-ordered, coalesced *)
  mutable buffered : int;
  mutable refills : int;
}

let align8 n = (n + 7) land lnot 7

let create remote ~chunk =
  assert (chunk > 0);
  { remote; chunk; buffer = []; buffered = 0; refills = 0 }

let insert_range buffer { addr; len } =
  let rec insert = function
    | [] -> [ { addr; len } ]
    | r :: rest when addr + len < r.addr -> { addr; len } :: r :: rest
    | r :: rest when addr + len = r.addr -> { addr; len = len + r.len } :: rest
    | r :: rest when r.addr + r.len = addr ->
      (match { addr = r.addr; len = r.len + len } :: rest with
      | m :: (r2 :: rest2 as tail) ->
        if m.addr + m.len = r2.addr then { m with len = m.len + r2.len } :: rest2
        else m :: tail
      | merged -> merged)
    | r :: rest -> r :: insert rest
  in
  insert buffer

let try_take t len =
  let rec take acc = function
    | [] -> None
    | r :: rest when r.len >= len ->
      let remainder =
        if r.len = len then rest else { addr = r.addr + len; len = r.len - len } :: rest
      in
      Some (r.addr, List.rev_append acc remainder)
    | r :: rest -> take (r :: acc) rest
  in
  take [] t.buffer

let alloc t len =
  let len = align8 (max 8 len) in
  match try_take t len with
  | Some (addr, buffer) ->
    t.buffer <- buffer;
    t.buffered <- t.buffered - len;
    (addr, false)
  | None ->
    (* Refill in big chunks; fall back to the exact size when the far
       address space cannot serve a whole chunk. *)
    let grab, base =
      let want = max t.chunk len in
      match Mira_sim.Remote_alloc.alloc t.remote want with
      | base -> (want, base)
      | exception Out_of_memory -> (len, Mira_sim.Remote_alloc.alloc t.remote len)
    in
    t.refills <- t.refills + 1;
    t.buffer <- insert_range t.buffer { addr = base; len = grab };
    t.buffered <- t.buffered + grab;
    (match try_take t len with
    | Some (addr, buffer) ->
      t.buffer <- buffer;
      t.buffered <- t.buffered - len;
      (addr, true)
    | None -> assert false)

let free t ~addr ~len =
  let len = align8 (max 8 len) in
  t.buffer <- insert_range t.buffer { addr; len };
  t.buffered <- t.buffered + len

let refills t = t.refills
