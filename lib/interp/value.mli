(** Run-time values of the interpreter, and their 8-byte memory encoding.

    Pointers are serialized into 64 bits when stored to memory:
    bit 63 = address space (0 local / 1 far), bits 48-62 = allocation
    site + 1 (so the null pointer is all-zero), bits 0-47 = address.
    This is a simulator device distinct from the paper's section-id
    pointer encoding (§5.2.1): the runtime routes each access by its
    allocation site instead. *)

type t =
  | Vunit
  | Vbool of bool
  | Vint of int64
  | Vfloat of float
  | Vptr of Mira_runtime.Memsys.ptr

val null : t
(** The null pointer (local, address 0). *)

val is_null : t -> bool

val ptr_bits : Mira_runtime.Memsys.ptr -> int64
(** The 64-bit serialization described above. *)

val bits_ptr : int64 -> Mira_runtime.Memsys.ptr
(** Inverse of [ptr_bits]. *)

val encode : Mira_mir.Types.ty -> t -> int64
(** Encode a value for storage as the given type.  Ints and bools
    coerce freely; integer 0 coerces to the null pointer.  Raises
    [Invalid_argument] on impossible coercions. *)

val decode : Mira_mir.Types.ty -> int64 -> t
(** Decode 8 stored bytes as the given type. *)

val as_int : t -> int64
(** Integer view: ints as-is, bools 0/1, pointers via their serialized
    bits (so equality and null tests work), floats truncated. *)

val as_float : t -> float
val as_bool : t -> bool

val as_ptr : t -> Mira_runtime.Memsys.ptr
(** Raises [Invalid_argument] if the value is not a pointer; integer 0
    converts to the null pointer. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
