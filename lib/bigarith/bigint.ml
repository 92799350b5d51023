(* Sign-magnitude representation; zero is always [Pos Bignat.zero]. *)

type t =
  | Pos of Bignat.t
  | Neg of Bignat.t (* invariant: magnitude is non-zero *)

let zero = Pos Bignat.zero
let of_bignat n = Pos n

let of_int n =
  if n >= 0 then Pos (Bignat.of_int n) else Neg (Bignat.of_int (-n))


let to_bignat_opt = function Pos n -> Some n | Neg _ -> None

let sign = function
  | Pos n -> if Bignat.is_zero n then 0 else 1
  | Neg _ -> -1

let neg = function
  | Pos n when Bignat.is_zero n -> zero
  | Pos n -> Neg n
  | Neg n -> Pos n

let abs = function Pos n | Neg n -> n

let add a b =
  match (a, b) with
  | Pos x, Pos y -> Pos (Bignat.add x y)
  | Neg x, Neg y -> Neg (Bignat.add x y)
  | Pos x, Neg y | Neg y, Pos x ->
    let c = Bignat.compare x y in
    if c >= 0 then Pos (Bignat.sub x y) else Neg (Bignat.sub y x)

let sub a b = add a (neg b)

let mul a b =
  let m = Bignat.mul (abs a) (abs b) in
  if Bignat.is_zero m then zero
  else if sign a * sign b >= 0 then Pos m
  else Neg m

let compare a b =
  match (a, b) with
  | Pos x, Pos y -> Bignat.compare x y
  | Neg x, Neg y -> Bignat.compare y x
  | Pos _, Neg _ -> 1
  | Neg _, Pos _ -> -1

let equal a b = compare a b = 0

let to_int_opt = function
  | Pos n -> Bignat.to_int_opt n
  | Neg n -> Option.map (fun v -> -v) (Bignat.to_int_opt n)

let to_string = function
  | Pos n -> Bignat.to_string n
  | Neg n -> "-" ^ Bignat.to_string n

