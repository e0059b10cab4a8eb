type t = { capacity : int; mutable data : Bytes.t; mutable size : int }

let initial_chunk = 1 lsl 16

let create ~capacity =
  assert (capacity > 0);
  { capacity; data = Bytes.make (min initial_chunk capacity) '\000'; size = 0 }

let capacity t = t.capacity
let size t = t.size

(* Every access moves the [size] high-water mark; only a write grows the
   backing bytes.  Bytes past them were never written, so a read there
   sees zeros without materializing them. *)
let touch t limit =
  if limit > t.capacity then
    failwith
      (Printf.sprintf "Far_store: access at %d exceeds capacity %d" limit
         t.capacity);
  if limit > t.size then t.size <- limit

let ensure t limit =
  touch t limit;
  let cur = Bytes.length t.data in
  if limit > cur then begin
    let target = min t.capacity (max limit (cur * 2)) in
    let grown = Bytes.make target '\000' in
    Bytes.blit t.data 0 grown 0 cur;
    t.data <- grown
  end

(* The backing bytes of [addr, addr + len) that exist; the rest read as
   zeros. *)
let backed t ~addr ~len = max 0 (min len (Bytes.length t.data - addr))

let read t ~addr ~len ~dst ~dst_off =
  assert (addr >= 0 && len >= 0);
  touch t (addr + len);
  let n = backed t ~addr ~len in
  if n > 0 then Bytes.blit t.data addr dst dst_off n;
  Bytes.fill dst (dst_off + n) (len - n) '\000'

let write t ~addr ~len ~src ~src_off =
  assert (addr >= 0 && len >= 0);
  ensure t (addr + len);
  Bytes.blit src src_off t.data addr len

(* Scalar access straight into the backing bytes: the value crosses the
   store boundary exactly once, no staging buffer. *)
let read_le t ~addr ~len =
  assert (addr >= 0 && len > 0 && len <= 8);
  touch t (addr + len);
  (* Little-endian: the backed bytes are the value's low ones. *)
  match backed t ~addr ~len with
  | 0 -> 0L
  | n -> Mira_util.Bytes_le.get t.data ~off:addr ~len:n

let write_le t ~addr ~len v =
  assert (addr >= 0 && len > 0 && len <= 8);
  ensure t (addr + len);
  Mira_util.Bytes_le.set t.data ~off:addr ~len v

let clear t =
  Bytes.fill t.data 0 (Bytes.length t.data) '\000';
  t.size <- 0
