(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would allocate a fresh box on every draw. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 (Int64.of_int seed);
  g

let copy = Bytes.copy

let[@inline] next g =
  let z = Int64.add (Bytes.get_int64_le g 0) golden in
  Bytes.set_int64_le g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Top 62 bits as a non-negative OCaml int. *)
let[@inline] next_nonneg g = Int64.to_int (Int64.shift_right_logical (next g) 2)

(* Rejection sampling over the largest multiple of n below 2^62, with one
   division per draw: [v] lies in a complete block of [n] values iff that
   block's base [v - v mod n] leaves room for all [n] of them. *)
let rec draw_below g n =
  let v = next_nonneg g in
  let r = v mod n in
  if v - r <= max_int - n then r else draw_below g n

let int_below g n =
  if n <= 0 then invalid_arg "Splitmix64.int_below: n >= 1 required";
  draw_below g n

let float_unit g =
  let v = Int64.to_int (Int64.shift_right_logical (next g) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let split g =
  let seed = Int64.to_int (next g) in
  create seed

(* Every draw adds [golden] to the state, so after [i] draws the master
   of [create seed] holds [seed + i·golden]: jump there and split. *)
let nth_split ~seed i =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0
    (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int i) golden));
  split g
