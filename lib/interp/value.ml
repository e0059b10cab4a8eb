module Memsys = Mira_runtime.Memsys
module Types = Mira_mir.Types

type t =
  | Vunit
  | Vbool of bool
  | Vint of int64
  | Vfloat of float
  | Vptr of Memsys.ptr

let null = Vptr { Memsys.space = Memsys.Local; addr = 0; site = -1 }

let is_null = function
  | Vptr p -> p.Memsys.addr = 0
  | Vint 0L -> true
  | Vunit | Vbool _ | Vint _ | Vfloat _ -> false

let addr_mask = 0xFFFF_FFFF_FFFFL

let ptr_bits (p : Memsys.ptr) =
  let space_bit = match p.Memsys.space with Memsys.Local -> 0L | Memsys.Far -> 1L in
  let site_bits = Int64.of_int ((p.Memsys.site + 1) land 0x7FFF) in
  Int64.logor
    (Int64.shift_left space_bit 63)
    (Int64.logor
       (Int64.shift_left site_bits 48)
       (Int64.logand (Int64.of_int p.Memsys.addr) addr_mask))

let bits_ptr bits =
  let space =
    if Int64.shift_right_logical bits 63 = 1L then Memsys.Far else Memsys.Local
  in
  let site = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 48) 0x7FFFL) - 1 in
  let addr = Int64.to_int (Int64.logand bits addr_mask) in
  { Memsys.space; addr; site }

let decode ty bits =
  match ty with
  | Types.I64 -> Vint bits
  | Types.Bool -> Vbool (bits <> 0L)
  | Types.F64 -> Vfloat (Int64.float_of_bits bits)
  | Types.Ptr _ -> Vptr (bits_ptr bits)
  | Types.Unit -> Vunit
  | Types.Struct _ -> invalid_arg "Value.decode: struct loads must be per-field"

let as_int = function
  | Vint i -> i
  | Vbool b -> if b then 1L else 0L
  | Vptr p -> ptr_bits p
  | Vfloat f -> Int64.of_float f
  | Vunit -> invalid_arg "Value.as_int: unit"

let as_float = function
  | Vfloat f -> f
  | Vint i -> Int64.to_float i
  | Vbool _ | Vptr _ | Vunit -> invalid_arg "Value.as_float"

let as_bool = function
  | Vbool b -> b
  | Vint i -> i <> 0L
  | Vfloat _ | Vptr _ | Vunit -> invalid_arg "Value.as_bool"

let as_ptr = function
  | Vptr p -> p
  | Vint 0L -> { Memsys.space = Memsys.Local; addr = 0; site = -1 }
  | Vint bits -> bits_ptr bits
  | Vbool _ | Vfloat _ | Vunit -> invalid_arg "Value.as_ptr"

(* A stored int is a pointer's pre-serialized bits, 0 the null pointer. *)
let encode ty v =
  match ty with
  | Types.I64 | Types.Bool -> as_int v
  | Types.F64 -> Int64.bits_of_float (as_float v)
  | Types.Ptr _ -> ptr_bits (as_ptr v)
  | Types.Unit | Types.Struct _ -> invalid_arg "Value.encode: cannot store unit/struct directly"

let pp ppf = function
  | Vunit -> Format.pp_print_string ppf "()"
  | Vbool b -> Format.pp_print_bool ppf b
  | Vint i -> Format.fprintf ppf "%Ld" i
  | Vfloat f -> Format.fprintf ppf "%g" f
  | Vptr p ->
    let space = match p.Memsys.space with Memsys.Local -> "local" | Memsys.Far -> "far" in
    Format.fprintf ppf "<%s:%d@%d>" space p.Memsys.site p.Memsys.addr

(* Structural: floats compare as IEEE numbers, so NaN equals nothing. *)
let equal (a : t) b = a = b
