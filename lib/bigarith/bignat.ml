(* Little-endian limbs in base 2^30, without trailing zero limbs.  The base is
   chosen so that a limb product (< 2^60) plus carries fits in a 63-bit
   OCaml int. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let is_zero x = Array.length x = 0

(* Strip trailing zero limbs so that the representation is canonical. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count k acc = if acc = 0 then k else count (k + 1) (acc lsr limb_bits) in
    let len = count 0 n in
    let a = Array.make len 0 in
    let rec fill i acc =
      if acc <> 0 then begin
        a.(i) <- acc land limb_mask;
        fill (i + 1) (acc lsr limb_bits)
      end
    in
    fill 0 n;
    a
  end

let one = of_int 1
let two = of_int 2

let to_int_opt x =
  (* An int holds at most 62 bits; accept anything that reconstructs without
     overflow. *)
  let n = Array.length x in
  if n > 3 then None
  else begin
    let rec go i acc =
      if i < 0 then Some acc
      else
        let shifted = acc * base in
        if shifted / base <> acc || shifted < 0 then None
        else
          let v = shifted + x.(i) in
          if v < 0 then None else go (i - 1) v
    in
    go (n - 1) 0
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry
      + (if i < la then a.(i) else 0)
      + (if i < lb then b.(i) else 0)
    in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let succ x = add x one

let sub_gen ~clamp (a : t) (b : t) : t =
  if compare a b < 0 then
    if clamp then zero else invalid_arg "Bignat.sub: negative result"
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    normalize r
  end

let sub a b = sub_gen ~clamp:false a b
let sub_clamped a b = sub_gen ~clamp:true a b

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let karatsuba_threshold = 32

(* Split [a] into (low, high) at limb index [k]. *)
let split_at (a : t) k =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (la - k))

let shift_limbs (a : t) k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (Stdlib.max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

let mul_int a k =
  if k < 0 then invalid_arg "Bignat.mul_int: negative"
  else mul a (of_int k)

let bits (x : t) =
  let n = Array.length x in
  if n = 0 then 0
  else begin
    let top = x.(n - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + width 0 top
  end

let log2_floor x =
  if is_zero x then invalid_arg "Bignat.log2_floor: zero" else bits x - 1

let testbit (x : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length x && (x.(limb) lsr off) land 1 = 1

let shift_left (x : t) k =
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / limb_bits and off = k mod limb_bits in
    let la = Array.length x in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = x.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (x : t) k =
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / limb_bits and off = k mod limb_bits in
    let la = Array.length x in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = x.(i + limbs) lsr off in
        let hi =
          if off = 0 || i + limbs + 1 >= la then 0
          else (x.(i + limbs + 1) lsl (limb_bits - off)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let pow2 k =
  if k < 0 then invalid_arg "Bignat.pow2: negative" else shift_left one k

(* Shift-and-subtract long division, one bit at a time.  Quadratic, which is
   fine for the sizes this library prints or divides. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  let c = compare a b in
  if c < 0 then (zero, a)
  else if c = 0 then (one, zero)
  else begin
    let nbits = bits a in
    let qlimbs = (nbits + limb_bits - 1) / limb_bits in
    let q = Array.make qlimbs 0 in
    let r = ref zero in
    for i = nbits - 1 downto 0 do
      r := shift_left !r 1;
      if testbit a i then r := add !r one;
      if compare !r b >= 0 then begin
        r := sub !r b;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, !r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let divmod_int (a : t) k =
  if k <= 0 || k >= base then invalid_arg "Bignat.divmod_int: divisor range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / k;
    r := cur mod k
  done;
  (normalize q, !r)

let pow b e =
  if e < 0 then invalid_arg "Bignat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let factorial n =
  if n < 0 then invalid_arg "Bignat.factorial: negative";
  let acc = ref one in
  for i = 2 to n do
    acc := mul_int !acc i
  done;
  !acc

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let of_string s =
  let acc = ref zero in
  let seen = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        seen := true;
        acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Bignat.of_string: malformed numeral")
    s;
  if not !seen then invalid_arg "Bignat.of_string: empty numeral";
  !acc

let to_string x =
  if is_zero x then "0"
  else begin
    (* Peel 9 decimal digits at a time. *)
    let chunk = 1_000_000_000 in
    let buf = Buffer.create 32 in
    let rec go x acc =
      if is_zero x then acc
      else
        let q, r = divmod_int x chunk in
        go q (r :: acc)
    in
    match go x [] with
    | [] -> "0"
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d)) rest;
      Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
