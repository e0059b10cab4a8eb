(** Types of the Mira IR.

    The IR is a structured, MLIR-flavoured representation: values are
    64-bit integers, 64-bit floats, booleans, unit, or typed pointers;
    aggregates are structs with named fields and arrays accessed through
    pointer arithmetic ([Ir.Gep]).  All scalar slots occupy 8 bytes so
    that layout questions (cache line contents, selective transmission
    of fields) stay byte-accurate but simple. *)

type ty =
  | Unit
  | Bool
  | I64
  | F64
  | Ptr of ty
  | Struct of struct_def

and struct_def = { s_name : string; s_fields : (string * ty) list }

val size_of : ty -> int
(** Byte size: scalars and pointers are 8 bytes, unit is 0, structs are
    the sum of their field sizes (all fields 8-byte aligned). *)

val field_offset : struct_def -> string -> int
(** Byte offset of a named field.  Raises [Not_found]. *)

val field_index : struct_def -> string -> int
(** Positional index of a named field.  Raises [Not_found]. *)

val struct_ : string -> (string * ty) list -> ty
(** Convenience constructor. *)

val pp : Format.formatter -> ty -> unit
(** MLIR-ish rendering: [i64], [f64], [ptr<i64>], [struct.edge]. *)

val equal : ty -> ty -> bool
(** Structural on scalars/pointers; {e nominal} on structs (recursive
    struct types are permitted, e.g. linked nodes). *)
