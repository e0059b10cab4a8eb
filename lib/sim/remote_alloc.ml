type range = { addr : int; len : int }

type t = {
  base : int;
  limit : int;
  mutable free_list : range list;  (* address-ordered, coalesced *)
  live : (int, int) Hashtbl.t;  (* addr -> len *)
  mutable live_bytes : int;
  mutable high_water : int;
}

let align8 n = (n + 7) land lnot 7

let create ~base ~limit =
  assert (base >= 0 && limit > base);
  {
    base;
    limit;
    free_list = [ { addr = base; len = limit - base } ];
    live = Hashtbl.create 64;
    live_bytes = 0;
    high_water = 0;
  }

(* First fit over an address-ordered free list. *)
let take ranges len =
  let rec go acc = function
    | [] -> None
    | r :: rest when r.len >= len ->
      let remainder =
        if r.len = len then rest
        else { addr = r.addr + len; len = r.len - len } :: rest
      in
      Some (r.addr, List.rev_append acc remainder)
    | r :: rest -> go (r :: acc) rest
  in
  go [] ranges

(* Insert in address order, coalescing with neighbours. *)
let insert ranges ({ addr; len } as range) =
  let merge_next m = function
    | r :: rest when m.addr + m.len = r.addr ->
      { m with len = m.len + r.len } :: rest
    | rest -> m :: rest
  in
  let rec go = function
    | [] -> [ range ]
    | r :: rest when addr + len < r.addr -> range :: r :: rest
    | r :: rest when addr + len = r.addr -> { addr; len = len + r.len } :: rest
    | r :: rest when r.addr + r.len = addr ->
      merge_next { addr = r.addr; len = r.len + len } rest
    | r :: rest when r.addr + r.len <= addr -> r :: go rest
    | _ -> invalid_arg "Remote_alloc.insert: range overlaps free space"
  in
  go ranges

let alloc t len =
  assert (len > 0);
  let len = align8 len in
  match take t.free_list len with
  | None -> raise Out_of_memory
  | Some (addr, free_list) ->
    t.free_list <- free_list;
    Hashtbl.replace t.live addr len;
    t.live_bytes <- t.live_bytes + len;
    if t.live_bytes > t.high_water then t.high_water <- t.live_bytes;
    addr

let free t ~addr ~len =
  let len = align8 len in
  (match Hashtbl.find_opt t.live addr with
  | Some l when l = len -> Hashtbl.remove t.live addr
  | Some l ->
    invalid_arg
      (Printf.sprintf "Remote_alloc.free: %d has length %d, freed with %d" addr
         l len)
  | None -> invalid_arg (Printf.sprintf "Remote_alloc.free: %d not live" addr));
  t.live_bytes <- t.live_bytes - len;
  t.free_list <- insert t.free_list { addr; len }

let live_bytes t = t.live_bytes
let high_water t = t.high_water

let check_no_overlap t =
  let ranges =
    Hashtbl.fold (fun addr len acc -> (addr, len) :: acc) t.live []
  in
  let sorted = List.sort compare ranges in
  let rec ok = function
    | (a1, l1) :: ((a2, _) :: _ as rest) -> a1 + l1 <= a2 && ok rest
    | _ -> true
  in
  ok sorted
