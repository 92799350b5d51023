type t =
  | Num of Bignat.t
  | Exp2 of t (* value 2^m; invariant: the exponent does not collapse *)

(* Exponents at most this size are materialised, keeping small towers
   concrete so that comparisons stay exact. *)
let collapse_bits = 20_000

let of_bignat n = Num n
let of_int n = Num (Bignat.of_int n)

let rec exp2 m =
  match m with
  | Num e ->
    (match Bignat.to_int_opt e with
     | Some k when k <= collapse_bits -> Num (Bignat.pow2 k)
     | _ -> Exp2 m)
  | Exp2 _ -> Exp2 (exp2_norm m)

(* Re-normalise a tower bottom-up (used when towers are built by hand). *)
and exp2_norm m = match m with Num _ -> m | Exp2 inner -> exp2 inner

let exp2_bignat e = exp2 (Num e)

let to_bignat_opt = function Num n -> Some n | Exp2 _ -> None

let is_pow2 n =
  (not (Bignat.is_zero n)) && Bignat.equal n (Bignat.pow2 (Bignat.log2_floor n))

let rec compare a b =
  match (a, b) with
  | Num x, Num y -> Bignat.compare x y
  | Exp2 x, Exp2 y -> compare x y
  | Num x, Exp2 m ->
    (* x < 2^m  iff  bits(x) <= m;  x = 2^m iff x is a power of two with
       log2 x = m. *)
    let bits_cmp = compare (Num (Bignat.of_int (Bignat.bits x))) m in
    if bits_cmp <= 0 then -1
    else if is_pow2 x && compare (Num (Bignat.of_int (Bignat.log2_floor x))) m = 0
    then 0
    else 1
  | Exp2 _, Num _ -> -compare b a

let max a b = if compare a b >= 0 then a else b

(* ceil(log2 x) as a magnitude; on towers it equals the exponent. *)
let log2_ceil = function
  | Num n ->
    if Bignat.is_zero n then invalid_arg "Magnitude.log2_ceil: zero"
    else if is_pow2 n then Num (Bignat.of_int (Bignat.log2_floor n))
    else Num (Bignat.of_int (Bignat.bits n))
  | Exp2 m -> m

let rec add_upper a b =
  match (a, b) with
  | Num x, Num y -> Num (Bignat.add x y)
  | _ ->
    if compare a (Num Bignat.zero) = 0 then b
    else if compare b (Num Bignat.zero) = 0 then a
    else
      (* a + b <= 2 * max a b = 2^(log2_ceil (max a b) + 1). *)
      exp2 (add_upper (log2_ceil (max a b)) (Num Bignat.one))

let mul_upper a b =
  match (a, b) with
  | Num x, Num y -> Num (Bignat.mul x y)
  | _ ->
    if compare a (Num Bignat.zero) = 0 || compare b (Num Bignat.zero) = 0 then
      Num Bignat.zero
    else exp2 (add_upper (log2_ceil a) (log2_ceil b))

let rec tower_height = function Num _ -> 0 | Exp2 m -> 1 + tower_height m

let rec to_string = function
  | Num n ->
    if Bignat.bits n <= 128 then Bignat.to_string n
    else Printf.sprintf "~2^%d" (Bignat.log2_floor n)
  | Exp2 m -> "2^(" ^ to_string m ^ ")"

