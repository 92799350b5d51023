type t = int array

let zero d = Array.make d 0
let init = Array.init
let dim = Array.length
let get (v : t) i = v.(i)

let set (v : t) i x =
  let r = Array.copy v in
  r.(i) <- x;
  r

let equal (u : t) (v : t) =
  let d = Array.length u in
  d = Array.length v
  &&
  let rec go i = i >= d || (u.(i) = v.(i) && go (i + 1)) in
  go 0

let compare_lex (u : t) (v : t) =
  let du = Array.length u and dv = Array.length v in
  if du <> dv then Stdlib.compare du dv
  else begin
    let rec go i =
      if i >= du then 0
      else if u.(i) <> v.(i) then Stdlib.compare u.(i) v.(i)
      else go (i + 1)
    in
    go 0
  end

let leq (u : t) (v : t) =
  let d = Array.length u in
  let rec go i = i >= d || (u.(i) <= v.(i) && go (i + 1)) in
  go 0


let map2 f (u : t) (v : t) : t =
  if Array.length u <> Array.length v then
    invalid_arg "Intvec: dimension mismatch";
  Array.init (Array.length u) (fun i -> f u.(i) v.(i))

let add u v = map2 ( + ) u v
let sub u v = map2 ( - ) u v
let neg (u : t) : t = Array.map (fun x -> -x) u
let scale k (u : t) : t = Array.map (fun x -> k * x) u
let pointwise_min u v = map2 Stdlib.min u v
let pointwise_max u v = map2 Stdlib.max u v

let sum_coords (u : t) = Array.fold_left ( + ) 0 u
let norm1 (u : t) = Array.fold_left (fun acc x -> acc + abs x) 0 u
let norm_inf (u : t) = Array.fold_left (fun acc x -> Stdlib.max acc (abs x)) 0 u

let support (u : t) =
  let acc = ref [] in
  for i = Array.length u - 1 downto 0 do
    if u.(i) <> 0 then acc := i :: !acc
  done;
  !acc

let is_nonnegative (u : t) = Array.for_all (fun x -> x >= 0) u

let hash (u : t) =
  (* FNV-style mixing; cheap and good enough for configuration tables. *)
  let h = ref 0x811c9dc5 in
  Array.iter (fun x -> h := (!h lxor (x + 0x9e3779b9)) * 0x01000193 land max_int) u;
  !h

let pp ?names fmt (u : t) =
  let name i =
    match names with
    | Some a when i < Array.length a -> a.(i)
    | _ -> Printf.sprintf "q%d" i
  in
  let entries =
    List.filter_map
      (fun i -> if u.(i) <> 0 then Some (Printf.sprintf "%d·%s" u.(i) (name i)) else None)
      (List.init (Array.length u) Fun.id)
  in
  match entries with
  | [] -> Format.pp_print_string fmt "()"
  | _ -> Format.fprintf fmt "(%s)" (String.concat ", " entries)
