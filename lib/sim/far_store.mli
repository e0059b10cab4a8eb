(** Byte-addressable backing store of the far-memory node.

    Holds the authoritative copy of every far-memory object.  The local
    cache sections copy line-sized ranges in and out of this store, so
    data correctness of the whole system is checkable against a flat
    reference memory (see the property tests). Grows on demand up to a
    fixed capacity. *)

type t

val create : capacity:int -> t
(** Empty store that may grow up to [capacity] bytes. *)

val capacity : t -> int

val size : t -> int
(** High-water mark of the addresses any access has touched.  Reads
    past the written bytes return zeros and do not grow the store. *)

val read : t -> addr:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit
(** Copy [len] bytes at far address [addr] into [dst] at [dst_off]. *)

val write : t -> addr:int -> len:int -> src:Bytes.t -> src_off:int -> unit
(** Copy [len] bytes from [src] at [src_off] to far address [addr]. *)

val read_le : t -> addr:int -> len:int -> int64
(** Little-endian scalar read of the [len] (1-8) bytes at [addr],
    zero-extended — one copy at the store boundary, no staging
    buffer. *)

val write_le : t -> addr:int -> len:int -> int64 -> unit
(** Little-endian scalar write of the value's [len] low bytes. *)

val clear : t -> unit
(** Zero the touched region and reset the size (between runs). *)
