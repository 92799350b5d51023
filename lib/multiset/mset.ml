type t = int array

let of_array a =
  if not (Array.for_all (fun x -> x >= 0) a) then
    invalid_arg "Mset.of_array: negative coordinate";
  Array.copy a

let to_intvec (c : t) : Intvec.t = c
let zero d = Array.make d 0

let singleton d i =
  if i < 0 || i >= d then invalid_arg "Mset.singleton: index out of range";
  let a = Array.make d 0 in
  a.(i) <- 1;
  a

let of_list d assoc =
  let a = Array.make d 0 in
  List.iter
    (fun (i, k) ->
      if i < 0 || i >= d then invalid_arg "Mset.of_list: index out of range";
      if k < 0 then invalid_arg "Mset.of_list: negative count";
      a.(i) <- a.(i) + k)
    assoc;
  a

let dim = Array.length
let get (c : t) i = c.(i)
let size (c : t) = Array.fold_left ( + ) 0 c
let count_on (c : t) s = List.fold_left (fun acc i -> acc + c.(i)) 0 s
let support = Intvec.support
let is_zero (c : t) = Array.for_all (fun x -> x = 0) c
let equal = Intvec.equal
let compare = Intvec.compare_lex
let leq = Intvec.leq
let add (a : t) (b : t) : t = Intvec.add a b

let sub_opt (a : t) (b : t) : t option =
  let r = Intvec.sub a b in
  if Intvec.is_nonnegative r then Some r else None

let scale k (c : t) : t =
  if k < 0 then invalid_arg "Mset.scale: negative factor";
  Intvec.scale k c

let pointwise_min = Intvec.pointwise_min
let pointwise_max = Intvec.pointwise_max

let add_delta (c : t) (delta : Intvec.t) : t option =
  let r = Intvec.add c delta in
  if Intvec.is_nonnegative r then Some r else None

let hash = Intvec.hash
let pp = Intvec.pp

let max_packed_dim = 7
let max_packed_count = 255

let packable (c : t) =
  Array.length c <= max_packed_dim
  && Array.for_all (fun x -> x <= max_packed_count) c

let pack (c : t) =
  if not (packable c) then invalid_arg "Mset.pack: not packable";
  let acc = ref 0 in
  for i = Array.length c - 1 downto 0 do
    acc := (!acc lsl 8) lor c.(i)
  done;
  !acc

let unpack ~dim packed : t =
  Array.init dim (fun i -> (packed lsr (8 * i)) land 0xff)

let pack_delta (d : Intvec.t) =
  let acc = ref 0 in
  for i = Array.length d - 1 downto 0 do
    acc := (!acc lsl 8) + d.(i)
  done;
  !acc
