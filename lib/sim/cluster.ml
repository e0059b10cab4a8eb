module Metrics = Mira_telemetry.Metrics

type placement = Flat | Rotate

let placement_name = function Flat -> "flat" | Rotate -> "rotate"

type event = { ev_node : int; ev_at : float; ev_down_for : float }

type spec = {
  nodes : int;
  k : int;
  m : int;
  chunk : int;
  placement : placement;
  schedule : event list;
}

let spec_default =
  { nodes = 1; k = 1; m = 0; chunk = 4096; placement = Flat; schedule = [] }

let mirror ~nodes ~copies schedule =
  { nodes; k = 1; m = copies - 1; chunk = 4096; placement = Flat; schedule }

let ec ?(chunk = 1024) ?(placement = Rotate) ~nodes ~k ~m schedule =
  { nodes; k; m; chunk; placement; schedule }

let validate_spec s =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if s.nodes < 1 then bad "Cluster: nodes must be >= 1 (got %d)" s.nodes;
  if s.k < 1 then bad "Cluster: k must be >= 1 (got %d)" s.k;
  if s.k > 32 then bad "Cluster: k must be <= 32 (got %d)" s.k;
  if s.m < 0 || s.m > 2 then bad "Cluster: m must be 0, 1 or 2 (got %d)" s.m;
  if s.k + s.m > s.nodes then
    bad "Cluster: scheme (%d,%d) needs %d nodes but the cluster has %d" s.k s.m
      (s.k + s.m) s.nodes;
  if s.chunk < 8 || s.chunk mod 8 <> 0 then
    bad "Cluster: chunk must be a positive multiple of 8 (got %d)" s.chunk;
  List.iter
    (fun e ->
      if e.ev_node < 0 || e.ev_node >= s.nodes then
        bad "Cluster: crash event names node %d of %d" e.ev_node s.nodes;
      if not (Float.is_finite e.ev_at) || e.ev_at < 0.0 then
        bad "Cluster: crash time must be finite and >= 0 (got %g)" e.ev_at;
      if not (Float.is_finite e.ev_down_for) || e.ev_down_for <= 0.0 then
        bad "Cluster: outage length must be finite and > 0 (got %g)"
          e.ev_down_for)
    s.schedule

(* Same splitmix64 finalizer as [Net.Fault]: purely functional, so a
   seed fully determines the schedule. *)
let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let u01 ~seed ~k ~salt =
  let open Int64 in
  let z = mix (add (of_int seed) 0x9E3779B97F4A7C15L) in
  let z = mix (logxor z (of_int ((k * 0x10001) + salt))) in
  to_float (shift_right_logical z 11) /. 9007199254740992.0

let schedule_of_seed ~overlap ~seed ~nodes ~crashes ~horizon_ns ~down_ns =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if nodes < 1 then bad "Cluster.schedule_of_seed: nodes must be >= 1 (got %d)" nodes;
  if crashes < 0 then
    bad "Cluster.schedule_of_seed: crashes must be >= 0 (got %d)" crashes;
  if not (Float.is_finite horizon_ns) || horizon_ns <= 0.0 then
    bad "Cluster.schedule_of_seed: horizon must be finite and > 0 (got %g)"
      horizon_ns;
  if not (Float.is_finite down_ns) || down_ns <= 0.0 then
    bad "Cluster.schedule_of_seed: outage length must be finite and > 0 (got %g)"
      down_ns;
  let raw =
    List.init crashes (fun k ->
        {
          ev_node = int_of_float (u01 ~seed ~k ~salt:1 *. float_of_int nodes) mod nodes;
          ev_at = u01 ~seed ~k ~salt:2 *. horizon_ns;
          ev_down_for = down_ns *. (0.5 +. u01 ~seed ~k ~salt:3);
        })
    |> List.sort (fun a b -> compare a.ev_at b.ev_at)
  in
  if overlap then
    (* Keep the raw times: outages genuinely overlap, so several nodes
       can be down at once — the regime the quorum rules exist for. *)
    raw
  else begin
    (* Serialize outages: a crash never lands while another node is
       still down (or just back), so at most one node is ever down. *)
    let gap = 0.1 *. down_ns in
    let _, serialized =
      List.fold_left
        (fun (free_at, acc) e ->
          let at = Float.max e.ev_at free_at in
          (at +. e.ev_down_for +. gap, { e with ev_at = at } :: acc))
        (0.0, []) raw
    in
    List.rev serialized
  end

type incident =
  | Failover of { at : float; failed : int; epoch : int; down : int }
  | Data_lost of { at : float; node : int; lost_bytes : int; epoch : int;
                   down : int }
  | Recovered of { at : float; node : int; resync_bytes : int; whole : bool }

type stats = {
  mutable crashes : int;
  mutable failovers : int;
  mutable replication_bytes : int;
  mutable resync_bytes : int;
  mutable lost_bytes : int;
  mutable reconstructions : int;
  mutable reconstructed_bytes : int;
  recovery : Metrics.hist;
}

let empty_stats () =
  {
    crashes = 0;
    failovers = 0;
    replication_bytes = 0;
    resync_bytes = 0;
    lost_bytes = 0;
    reconstructions = 0;
    reconstructed_bytes = 0;
    recovery = Metrics.hist_create ();
  }

(* --- GF(2^8) arithmetic ---------------------------------------------------

   The second parity row is a Reed-Solomon row Q = sum g^j * d_j over
   GF(2^8) with the AES-adjacent polynomial 0x11d: pure table-driven
   integer math, so decode results are bit-exact on every platform.
   Row 0 is plain XOR (all coefficients 1); with k = 1 both rows
   degenerate to full copies, which is exactly mirroring. *)

let gf_exp = Array.make 512 1
let gf_log = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    gf_exp.(i) <- !x;
    gf_log.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor 0x11d
  done;
  for i = 255 to 511 do
    gf_exp.(i) <- gf_exp.(i - 255)
  done

let gf_inv a = gf_exp.(255 - gf_log.(a))

(* Parity coefficient of data slot [j] in row [r]. *)
let coeff r j = if r = 0 then 1 else gf_exp.(j mod 255)

(* dst ^= src (byte-wise). *)
let xor_into ~src ~src_off ~dst ~dst_off ~len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_off + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (dst_off + i))
         lxor Char.code (Bytes.unsafe_get src (src_off + i))))
  done

(* dst ^= c * src over GF(2^8). *)
let gf_madd ~c ~src ~src_off ~dst ~dst_off ~len =
  if c = 1 then xor_into ~src ~src_off ~dst ~dst_off ~len
  else if c <> 0 then begin
    let lc = gf_log.(c) in
    for i = 0 to len - 1 do
      let b = Char.code (Bytes.unsafe_get src (src_off + i)) in
      if b <> 0 then
        Bytes.unsafe_set dst (dst_off + i)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get dst (dst_off + i))
             lxor gf_exp.(lc + gf_log.(b))))
    done
  end

(* buf *= c in place. *)
let gf_scale ~c buf ~len =
  if c <> 1 then begin
    let lc = gf_log.(c) in
    for i = 0 to len - 1 do
      let b = Char.code (Bytes.unsafe_get buf i) in
      if b <> 0 then
        Bytes.unsafe_set buf i (Char.unsafe_chr gf_exp.(lc + gf_log.(b)))
    done
  end

(* --- cluster state -------------------------------------------------------- *)

type node = {
  store : Far_store.t;
  mutable up : bool;
  mutable up_at : float;  (* recovery time while down *)
  mutable served_bytes : int;  (* data-plane bytes read/written on this node *)
}

type t = {
  spec : spec;
  cap : int;  (* logical capacity *)
  trivial : bool;  (* 1 node, (1,0) scheme: transparent pass-through *)
  nodes : node array;
  mutable epoch : int;
  mutable down_count : int;
  mutable crash_q : event list;  (* pending crashes, sorted by time *)
  mutable recover_q : (float * int) list;  (* pending recoveries, sorted *)
  mutable next_at : float;
  mutable lost : (int * int) list;  (* lost logical extents, newest first *)
  mutable degraded : bool;
  mutable hw : int;  (* logical high-water size (non-trivial clusters) *)
  mutable recon_pending : int;  (* undrained extra survivor bytes from decode *)
  stats : stats;
}

let refresh_next t =
  let a = match t.crash_q with e :: _ -> e.ev_at | [] -> infinity in
  let b = match t.recover_q with (at, _) :: _ -> at | [] -> infinity in
  t.next_at <- Float.min a b

let make_of_nodes spec ~cap nodes =
  let t =
    {
      spec;
      cap;
      trivial = spec.nodes = 1 && spec.k = 1 && spec.m = 0;
      nodes;
      epoch = 0;
      down_count = 0;
      crash_q = List.sort (fun a b -> compare a.ev_at b.ev_at) spec.schedule;
      recover_q = [];
      next_at = infinity;
      lost = [];
      degraded = false;
      hw = 0;
      recon_pending = 0;
      stats = empty_stats ();
    }
  in
  refresh_next t;
  t

let create ~capacity spec =
  validate_spec spec;
  (* Each node holds one [chunk]-sized slice per stripe, so its store
     is the logical capacity scaled by chunk/stripe (rounded up). *)
  let stripe = spec.k * spec.chunk in
  let node_cap =
    max spec.chunk (((capacity + stripe - 1) / stripe) * spec.chunk)
  in
  make_of_nodes spec ~cap:capacity
    (Array.init spec.nodes (fun _ ->
         {
           store = Far_store.create ~capacity:node_cap;
           up = true;
           up_at = 0.0;
           served_bytes = 0;
         }))

let of_store store =
  make_of_nodes spec_default ~cap:(Far_store.capacity store)
    [| { store; up = true; up_at = 0.0; served_bytes = 0 } |]

let spec t = t.spec
let capacity t = t.cap
let scheme t = (t.spec.k, t.spec.m)
let primary t = t.nodes.(0).store
let epoch t = t.epoch
let degraded t = t.degraded
let stats t = t.stats
let down_count t = t.down_count

let serving_node t =
  let rec go i = if i >= Array.length t.nodes then 0 else if t.nodes.(i).up then i else go (i + 1) in
  go 0

(* Trace lane of the lowest live node, so fill spans can mark which
   physical node satisfied them (the lane changes across outages). *)
let service_lane t = Printf.sprintf "node%d" (serving_node t)

let node_down_until t ~node =
  let n = t.nodes.(node) in
  if n.up then 0.0 else n.up_at

let down_until t =
  if t.down_count <= t.spec.m then 0.0
  else begin
    (* The instant the down count falls back to m: the
       (down_count - m)-th earliest pending recovery. *)
    let ups =
      Array.to_list t.nodes
      |> List.filter_map (fun n -> if n.up then None else Some n.up_at)
      |> List.sort compare
    in
    List.nth ups (t.down_count - t.spec.m - 1)
  end

let next_event_at t = t.next_at

let take_lost_extents t =
  let l = List.rev t.lost in
  t.lost <- [];
  l

let take_reconstruction t =
  let n = t.recon_pending in
  t.recon_pending <- 0;
  n

let observe_recovery t ns = Metrics.hist_observe t.stats.recovery ns

(* --- stripe geometry ------------------------------------------------------ *)

let stripe_bytes t = t.spec.k * t.spec.chunk

let node_of_slot t ~stripe ~slot =
  match t.spec.placement with
  | Flat -> slot
  | Rotate -> (stripe + slot) mod t.spec.nodes

let slot_of_node t ~stripe ~node =
  let width = t.spec.k + t.spec.m in
  match t.spec.placement with
  | Flat -> if node < width then Some node else None
  | Rotate ->
    let j = (node - stripe) mod t.spec.nodes in
    let j = if j < 0 then j + t.spec.nodes else j in
    if j < width then Some j else None

let node_of_addr t ~addr =
  if t.trivial then 0
  else begin
    let sb = stripe_bytes t in
    let stripe = addr / sb in
    node_of_slot t ~stripe ~slot:(addr mod sb / t.spec.chunk)
  end

let group_down t ~stripe =
  let c = ref 0 in
  for j = 0 to t.spec.k + t.spec.m - 1 do
    if not t.nodes.(node_of_slot t ~stripe ~slot:j).up then incr c
  done;
  !c

let logical_size t = if t.trivial then Far_store.size t.nodes.(0).store else t.hw

let ensure_cap t limit =
  if limit > t.cap then
    failwith
      (Printf.sprintf "Cluster: access at %d exceeds capacity %d" limit t.cap);
  if limit > t.hw then t.hw <- limit

(* Walk the chunk pieces covering [addr, addr+len): calls
   [f ~stripe ~slot ~off ~clen ~lpos] with the intra-chunk offset and
   the piece's position relative to [addr]. *)
let iter_pieces t ~addr ~len f =
  let chunk = t.spec.chunk in
  let sb = stripe_bytes t in
  let pos = ref addr in
  let stop = addr + len in
  while !pos < stop do
    let stripe = !pos / sb in
    let within = !pos mod sb in
    let slot = within / chunk in
    let off = within mod chunk in
    let clen = min (chunk - off) (stop - !pos) in
    f ~stripe ~slot ~off ~clen ~lpos:(!pos - addr);
    pos := !pos + clen
  done

(* --- decode --------------------------------------------------------------- *)

(* Decode the [off, off+clen) range of data slot [jm] of [stripe] from
   any k survivors: each live parity row yields one syndrome equation
   over the missing data slots (at most m unknowns; the caller
   guarantees the group is within quorum).  One unknown is solved from
   any single row; two unknowns from the XOR/RS pair, RAID-6 style. *)
let decode_data t ~account ~stripe ~jm ~off ~clen ~dst ~dst_off =
  let k = t.spec.k and m = t.spec.m and chunk = t.spec.chunk in
  let la = (stripe * chunk) + off in
  let missing = ref [] in
  for j = k - 1 downto 0 do
    if not t.nodes.(node_of_slot t ~stripe ~slot:j).up then
      missing := j :: !missing
  done;
  let rows = ref [] in
  for r = m - 1 downto 0 do
    if t.nodes.(node_of_slot t ~stripe ~slot:(k + r)).up then rows := r :: !rows
  done;
  let read_slot slot buf =
    let nd = t.nodes.(node_of_slot t ~stripe ~slot) in
    Far_store.read nd.store ~addr:la ~len:clen ~dst:buf ~dst_off:0;
    nd.served_bytes <- nd.served_bytes + clen
  in
  let tmp = Bytes.create clen in
  (* Syndrome of row r: parity xor (live data terms)
     = sum over missing slots of coeff(r,j) * d_j. *)
  let syndrome r =
    let acc = Bytes.create clen in
    read_slot (k + r) acc;
    for j = 0 to k - 1 do
      if t.nodes.(node_of_slot t ~stripe ~slot:j).up then begin
        read_slot j tmp;
        gf_madd ~c:(coeff r j) ~src:tmp ~src_off:0 ~dst:acc ~dst_off:0 ~len:clen
      end
    done;
    acc
  in
  (match (!missing, !rows) with
  | [ j1 ], r :: _ ->
    assert (j1 = jm);
    let s = syndrome r in
    gf_scale ~c:(gf_inv (coeff r j1)) s ~len:clen;
    Bytes.blit s 0 dst dst_off clen
  | [ j1; j2 ], [ 0; 1 ] ->
    (* s0 = d1 + d2, s1 = g^j1 d1 + g^j2 d2
       => d1 = (g^j2 s0 + s1) / (g^j1 + g^j2), d2 = s0 + d1. *)
    let s0 = syndrome 0 and s1 = syndrome 1 in
    let d1 = Bytes.make clen '\000' in
    gf_madd ~c:(coeff 1 j2) ~src:s0 ~src_off:0 ~dst:d1 ~dst_off:0 ~len:clen;
    xor_into ~src:s1 ~src_off:0 ~dst:d1 ~dst_off:0 ~len:clen;
    gf_scale ~c:(gf_inv (coeff 1 j1 lxor coeff 1 j2)) d1 ~len:clen;
    if jm = j1 then Bytes.blit d1 0 dst dst_off clen
    else begin
      xor_into ~src:d1 ~src_off:0 ~dst:s0 ~dst_off:0 ~len:clen;
      Bytes.blit s0 0 dst dst_off clen
    end
  | _ -> invalid_arg "Cluster.decode: stripe group past quorum");
  if account then begin
    (* Reconstructing c bytes reads k chunk ranges instead of one:
       (k-1)*c extra survivor bytes, drained by the cache layer. *)
    t.recon_pending <- t.recon_pending + ((k - 1) * clen);
    t.stats.reconstructions <- t.stats.reconstructions + 1;
    t.stats.reconstructed_bytes <- t.stats.reconstructed_bytes + clen
  end

(* --- data plane ----------------------------------------------------------- *)

let read t ~addr ~len ~dst ~dst_off =
  if t.trivial then Far_store.read t.nodes.(0).store ~addr ~len ~dst ~dst_off
  else begin
    ensure_cap t (addr + len);
    iter_pieces t ~addr ~len (fun ~stripe ~slot ~off ~clen ~lpos ->
        let nd = t.nodes.(node_of_slot t ~stripe ~slot) in
        let la = (stripe * t.spec.chunk) + off in
        if nd.up then begin
          Far_store.read nd.store ~addr:la ~len:clen ~dst
            ~dst_off:(dst_off + lpos);
          nd.served_bytes <- nd.served_bytes + clen
        end
        else if group_down t ~stripe <= t.spec.m then
          decode_data t ~account:true ~stripe ~jm:slot ~off ~clen ~dst
            ~dst_off:(dst_off + lpos)
        else
          (* Past quorum the decoded value is gone: the (wiped +
             post-crash-buffered) store contents are the truth — lost
             ranges read as zeros, writes made during the outage are
             delivered. *)
          Far_store.read nd.store ~addr:la ~len:clen ~dst
            ~dst_off:(dst_off + lpos))
  end

(* Per-parity-row bytes-on-wire of a write of the [extents]
   [(off, len)] at [addr]: for every touched stripe, the union of the
   touched intra-chunk intervals over all extents (a full-stripe write
   costs chunk = len/k per row; a single-chunk write costs its length
   on every row).  Rows whose parity node is down cost nothing. *)
let row_wire_bytes t ~addr ~extents =
  if t.trivial || t.spec.m = 0 then [||]
  else begin
    let k = t.spec.k and chunk = t.spec.chunk in
    let sb = stripe_bytes t in
    let pieces = ref [] in
    List.iter
      (fun (off, len) ->
        let pos = ref (addr + off) in
        let stop = addr + off + len in
        while !pos < stop do
          let stripe = !pos / sb in
          let e = min stop ((stripe + 1) * sb) in
          let a = !pos - (stripe * sb) and b = e - (stripe * sb) in
          let j0 = a / chunk and j1 = (b - 1) / chunk in
          let lo = a mod chunk and hi = ((b - 1) mod chunk) + 1 in
          pieces :=
            (if j0 = j1 then [ (stripe, lo, hi) ]
             else if j1 > j0 + 1 then [ (stripe, 0, chunk) ]
             else [ (stripe, lo, chunk); (stripe, 0, hi) ])
            @ !pieces;
          pos := e
        done)
      extents;
    let rows = Array.make t.spec.m 0 in
    let charge stripe u =
      for r = 0 to t.spec.m - 1 do
        if t.nodes.(node_of_slot t ~stripe ~slot:(k + r)).up then
          rows.(r) <- rows.(r) + u
      done
    in
    (* Sorted, a stripe's intervals are adjacent: grow the current
       interval while the next one overlaps it, charge it otherwise. *)
    let rec sweep stripe lo hi = function
      | (s, l, h) :: rest when s = stripe && l <= hi -> sweep stripe lo (max hi h) rest
      | next ->
        charge stripe (hi - lo);
        (match next with (s, l, h) :: rest -> sweep s l h rest | [] -> ())
    in
    (match List.sort compare !pieces with
    | (s, l, h) :: rest -> sweep s l h rest
    | [] -> ());
    rows
  end

let replica_payloads t ~addr ~extents =
  let rows = row_wire_bytes t ~addr ~extents in
  let k = t.spec.k in
  let stripe =
    match extents with
    | (off, _) :: _ when not t.trivial -> (addr + off) / stripe_bytes t
    | _ -> 0
  in
  Array.to_list rows
  |> List.mapi (fun r bytes ->
         (node_of_slot t ~stripe ~slot:(k + r), bytes))
  |> List.filter (fun (_, bytes) -> bytes > 0)

(* Fold a data-chunk delta into every live parity chunk of the stripe. *)
let fold_delta t ~stripe ~slot ~off ~clen ~delta =
  let k = t.spec.k and chunk = t.spec.chunk in
  let la = (stripe * chunk) + off in
  for r = 0 to t.spec.m - 1 do
    let pn = t.nodes.(node_of_slot t ~stripe ~slot:(k + r)) in
    if pn.up then begin
      let p = Bytes.create clen in
      Far_store.read pn.store ~addr:la ~len:clen ~dst:p ~dst_off:0;
      gf_madd ~c:(coeff r slot) ~src:delta ~src_off:0 ~dst:p ~dst_off:0
        ~len:clen;
      Far_store.write pn.store ~addr:la ~len:clen ~src:p ~src_off:0
    end
  done

(* The data half of a write: bytes to the data chunk, deltas to parity. *)
let write_data t ~addr ~len ~src ~src_off =
  if t.trivial then Far_store.write t.nodes.(0).store ~addr ~len ~src ~src_off
  else begin
    ensure_cap t (addr + len);
    iter_pieces t ~addr ~len (fun ~stripe ~slot ~off ~clen ~lpos ->
        let nd = t.nodes.(node_of_slot t ~stripe ~slot) in
        let la = (stripe * t.spec.chunk) + off in
        if t.spec.m = 0 then
          Far_store.write nd.store ~addr:la ~len:clen ~src
            ~src_off:(src_off + lpos)
        else begin
          (* Incremental parity: delta = old xor new, folded into every
             live parity row.  The old value of a down chunk within
             quorum is decoded from survivors; past quorum the store
             contents are already the truth. *)
          let old = Bytes.create clen in
          if nd.up then
            Far_store.read nd.store ~addr:la ~len:clen ~dst:old ~dst_off:0
          else if group_down t ~stripe <= t.spec.m then
            decode_data t ~account:true ~stripe ~jm:slot ~off ~clen ~dst:old
              ~dst_off:0
          else Far_store.read nd.store ~addr:la ~len:clen ~dst:old ~dst_off:0;
          xor_into ~src ~src_off:(src_off + lpos) ~dst:old ~dst_off:0 ~len:clen;
          Far_store.write nd.store ~addr:la ~len:clen ~src
            ~src_off:(src_off + lpos);
          fold_delta t ~stripe ~slot ~off ~clen ~delta:old
        end;
        if nd.up then nd.served_bytes <- nd.served_bytes + clen)
  end

let account_rows t ~addr ~extents =
  Array.iter
    (fun b -> t.stats.replication_bytes <- t.stats.replication_bytes + b)
    (row_wire_bytes t ~addr ~extents)

let write t ~addr ~len ~src ~src_off =
  write_data t ~addr ~len ~src ~src_off;
  if not t.trivial then account_rows t ~addr ~extents:[ (0, len) ]

(* Extent loops recurse instead of iterating a closure: a fill and a
   writeback of every cache line take them.  The buffer side is packed:
   each extent follows the previous one. *)
let rec read_extents t ~addr ~extents ~dst ~dst_off =
  match extents with
  | [] -> ()
  | (off, len) :: rest ->
    read t ~addr:(addr + off) ~len ~dst ~dst_off;
    read_extents t ~addr ~extents:rest ~dst ~dst_off:(dst_off + len)

let rec write_pieces t ~addr ~extents ~src ~src_off =
  match extents with
  | [] -> ()
  | (off, len) :: rest ->
    write_data t ~addr:(addr + off) ~len ~src ~src_off;
    write_pieces t ~addr ~extents:rest ~src ~src_off:(src_off + len)

let write_extents t ~addr ~extents ~src ~src_off =
  write_pieces t ~addr ~extents ~src ~src_off;
  if not t.trivial then account_rows t ~addr ~extents

let read_le t ~addr ~len =
  if t.trivial then Far_store.read_le t.nodes.(0).store ~addr ~len
  else begin
    let b = Bytes.create len in
    read t ~addr ~len ~dst:b ~dst_off:0;
    Mira_util.Bytes_le.get b ~off:0 ~len
  end

let write_le t ~addr ~len v =
  if t.trivial then Far_store.write_le t.nodes.(0).store ~addr ~len v
  else begin
    let b = Bytes.create len in
    Mira_util.Bytes_le.set b ~off:0 ~len v;
    write t ~addr ~len ~src:b ~src_off:0
  end

(* --- crash / recovery ----------------------------------------------------- *)

let nstripes_touched t =
  let sb = stripe_bytes t in
  (logical_size t + sb - 1) / sb

let add_lost t (a, l) =
  match t.lost with
  | (pa, pl) :: rest when pa + pl = a -> t.lost <- (pa, pl + l) :: rest
  | _ -> t.lost <- (a, l) :: t.lost

(* Recompute every live parity chunk of [stripe] from the data stores
   (used after a past-quorum wipe, when incremental deltas can no
   longer bridge to the lost contents). *)
let recompute_parity t ~stripe ~hw =
  let k = t.spec.k and chunk = t.spec.chunk in
  let ulen = min chunk (max 0 (hw - (stripe * stripe_bytes t))) in
  if ulen > 0 then begin
    let tmp = Bytes.create ulen in
    for r = 0 to t.spec.m - 1 do
      let pn = t.nodes.(node_of_slot t ~stripe ~slot:(k + r)) in
      if pn.up then begin
        let acc = Bytes.make ulen '\000' in
        for j = 0 to k - 1 do
          let dn = t.nodes.(node_of_slot t ~stripe ~slot:j) in
          Far_store.read dn.store ~addr:(stripe * chunk) ~len:ulen ~dst:tmp
            ~dst_off:0;
          gf_madd ~c:(coeff r j) ~src:tmp ~src_off:0 ~dst:acc ~dst_off:0
            ~len:ulen
        done;
        Far_store.write pn.store ~addr:(stripe * chunk) ~len:ulen ~src:acc
          ~src_off:0
      end
    done
  end

let crash t (e : event) =
  let x = e.ev_node in
  let n = t.nodes.(x) in
  t.stats.crashes <- t.stats.crashes + 1;
  if not n.up then begin
    (* Already down: the outage just stretches. *)
    n.up_at <- Float.max n.up_at (e.ev_at +. e.ev_down_for);
    t.recover_q <-
      List.sort compare
        ((n.up_at, x) :: List.filter (fun (_, i) -> i <> x) t.recover_q);
    None
  end
  else begin
    let k = t.spec.k and m = t.spec.m and chunk = t.spec.chunk in
    let sb = stripe_bytes t in
    let hw = logical_size t in
    (* Pass 1, store still intact: find the stripe groups this crash
       pushes past quorum, and materialize the still-decodable phantom
       chunks of already-down group mates into their stores — after
       the wipe they can never be decoded again, and the stores become
       the direct-mode truth. *)
    let over = ref [] in
    let saved = t.recon_pending in
    for s = nstripes_touched t - 1 downto 0 do
      if slot_of_node t ~stripe:s ~node:x <> None then begin
        let down_before = group_down t ~stripe:s in
        if down_before + 1 > m then begin
          over := s :: !over;
          if down_before <= m && down_before > 0 then
            for j = 0 to k - 1 do
              let peer = t.nodes.(node_of_slot t ~stripe:s ~slot:j) in
              if not peer.up then begin
                let clen = min chunk (max 0 (hw - ((s * sb) + (j * chunk)))) in
                if clen > 0 then begin
                  let buf = Bytes.create clen in
                  decode_data t ~account:false ~stripe:s ~jm:j ~off:0 ~clen
                    ~dst:buf ~dst_off:0;
                  Far_store.write peer.store ~addr:(s * chunk) ~len:clen
                    ~src:buf ~src_off:0
                end
              end
            done
        end
      end
    done;
    t.recon_pending <- saved;
    (* The crash proper: wipe the store, mark the node down, bump the
       fencing epoch (requests in flight to it are stale). *)
    Far_store.clear n.store;
    n.up <- false;
    n.up_at <- e.ev_at +. e.ev_down_for;
    t.down_count <- t.down_count + 1;
    t.recover_q <- List.sort compare ((n.up_at, x) :: t.recover_q);
    t.epoch <- t.epoch + 1;
    (* Pass 2: in every past-quorum group the crashed node's data
       chunks are unrecoverable — account the exact logical extents
       and recompute surviving parity over the zeroed chunks so the
       group stays self-consistent. *)
    let lost_here = ref 0 in
    List.iter
      (fun s ->
        (match slot_of_node t ~stripe:s ~node:x with
        | Some j when j < k ->
          let base = (s * sb) + (j * chunk) in
          let clen = min chunk (max 0 (hw - base)) in
          if clen > 0 then begin
            lost_here := !lost_here + clen;
            add_lost t (base, clen)
          end
        | _ -> ());
        recompute_parity t ~stripe:s ~hw)
      !over;
    if !over <> [] then begin
      t.degraded <- true;
      t.stats.lost_bytes <- t.stats.lost_bytes + !lost_here;
      Some
        (Data_lost
           { at = e.ev_at; node = x; lost_bytes = !lost_here; epoch = t.epoch;
             down = t.down_count })
    end
    else begin
      t.stats.failovers <- t.stats.failovers + 1;
      Some
        (Failover
           { at = e.ev_at; failed = x; epoch = t.epoch; down = t.down_count })
    end
  end

let recover t ~at idx =
  let n = t.nodes.(idx) in
  let k = t.spec.k and m = t.spec.m and chunk = t.spec.chunk in
  let sb = stripe_bytes t in
  let hw = logical_size t in
  let rebuilt = ref 0 in
  let saved = t.recon_pending in
  (* Rebuild the returning node's chunks from survivors (this node is
     still counted as down, so decode never sources its stale store).
     Past-quorum groups need no rebuild: their stores are the truth. *)
  for s = 0 to nstripes_touched t - 1 do
    match slot_of_node t ~stripe:s ~node:idx with
    | None -> ()
    | Some j when j < k ->
      let base = (s * sb) + (j * chunk) in
      let clen = min chunk (max 0 (hw - base)) in
      if clen > 0 && group_down t ~stripe:s <= m then begin
        let buf = Bytes.create clen in
        decode_data t ~account:false ~stripe:s ~jm:j ~off:0 ~clen ~dst:buf
          ~dst_off:0;
        Far_store.write n.store ~addr:(s * chunk) ~len:clen ~src:buf ~src_off:0;
        rebuilt := !rebuilt + clen
      end
    | Some j ->
      let ulen = min chunk (max 0 (hw - (s * sb))) in
      if ulen > 0 then begin
        let r = j - k in
        let acc = Bytes.make ulen '\000' in
        let tmp = Bytes.create ulen in
        for i = 0 to k - 1 do
          let dn = t.nodes.(node_of_slot t ~stripe:s ~slot:i) in
          if (not dn.up) && group_down t ~stripe:s <= m then
            decode_data t ~account:false ~stripe:s ~jm:i ~off:0 ~clen:ulen
              ~dst:tmp ~dst_off:0
          else
            Far_store.read dn.store ~addr:(s * chunk) ~len:ulen ~dst:tmp
              ~dst_off:0;
          gf_madd ~c:(coeff r i) ~src:tmp ~src_off:0 ~dst:acc ~dst_off:0
            ~len:ulen
        done;
        Far_store.write n.store ~addr:(s * chunk) ~len:ulen ~src:acc ~src_off:0;
        rebuilt := !rebuilt + ulen
      end
  done;
  t.recon_pending <- saved;
  n.up <- true;
  t.down_count <- t.down_count - 1;
  if !rebuilt > 0 then begin
    t.stats.resync_bytes <- t.stats.resync_bytes + !rebuilt;
    t.stats.replication_bytes <- t.stats.replication_bytes + !rebuilt
  end;
  Recovered { at; node = idx; resync_bytes = !rebuilt; whole = t.down_count = 0 }

let poll t ~now =
  let incidents = ref [] in
  let rec drain () =
    if t.next_at <= now then begin
      let next_crash = match t.crash_q with e :: _ -> e.ev_at | [] -> infinity in
      let next_recover =
        match t.recover_q with (at, _) :: _ -> at | [] -> infinity
      in
      (* Recoveries first on ties, so back-to-back outages behave. *)
      if next_recover <= next_crash then begin
        match t.recover_q with
        | (at, idx) :: rest ->
          t.recover_q <- rest;
          incidents := recover t ~at idx :: !incidents
        | [] -> ()
      end
      else begin
        match t.crash_q with
        | e :: rest ->
          t.crash_q <- rest;
          (match crash t e with
          | Some inc -> incidents := inc :: !incidents
          | None -> ())
        | [] -> ()
      end;
      refresh_next t;
      drain ()
    end
  in
  drain ();
  List.rev !incidents

let publish t reg =
  let s = t.stats in
  Metrics.set_counter reg "node.crashes" s.crashes;
  Metrics.set_counter reg "node.failovers" s.failovers;
  Metrics.set_counter reg "node.lost_bytes" s.lost_bytes;
  Metrics.set_counter reg "node.epoch" t.epoch;
  Metrics.set_counter reg "node.down" t.down_count;
  Metrics.set_hist reg "node.recovery_ns" s.recovery;
  Metrics.set_counter reg "replication.bytes" s.replication_bytes;
  Metrics.set_counter reg "replication.resync_bytes" s.resync_bytes;
  if not t.trivial then begin
    Metrics.set_counter reg "ec.k" t.spec.k;
    Metrics.set_counter reg "ec.m" t.spec.m;
    Metrics.set_counter reg "ec.chunk" t.spec.chunk;
    Metrics.set_counter reg "ec.reconstructions" s.reconstructions;
    Metrics.set_counter reg "ec.reconstructed_bytes" s.reconstructed_bytes;
    Array.iteri
      (fun i n ->
        Metrics.set_counter reg
          (Printf.sprintf "ec.node%d.served_bytes" i)
          n.served_bytes)
      t.nodes
  end

let clear t =
  Array.iter
    (fun n ->
      Far_store.clear n.store;
      n.served_bytes <- 0)
    t.nodes;
  t.lost <- [];
  t.degraded <- false;
  t.hw <- 0;
  t.recon_pending <- 0;
  let s = t.stats in
  s.crashes <- 0;
  s.failovers <- 0;
  s.replication_bytes <- 0;
  s.resync_bytes <- 0;
  s.lost_bytes <- 0;
  s.reconstructions <- 0;
  s.reconstructed_bytes <- 0;
  Metrics.hist_reset s.recovery
