type t = {
  dim : int;
  maximal : Omega_vec.t list; (* pairwise incomparable *)
}

let keep_maximal vs =
  List.filter
    (fun v ->
      not
        (List.exists
           (fun v' -> (not (Omega_vec.equal v v')) && Omega_vec.leq v v')
           vs))
    vs
  |> List.sort_uniq Stdlib.compare

let of_max_elements dim vs =
  List.iter
    (fun v ->
      if Omega_vec.dim v <> dim then invalid_arg "Downset.of_max_elements: dimension")
    vs;
  { dim; maximal = keep_maximal vs }

let max_elements d = d.maximal
let mem c d = List.exists (Omega_vec.member c) d.maximal
let basis d = List.map Omega_vec.to_basis_element d.maximal
let size d = List.length d.maximal
let norm d = List.fold_left (fun acc v -> Stdlib.max acc (Omega_vec.norm_inf v)) 0 d.maximal

let union a b =
  if a.dim <> b.dim then invalid_arg "Downset.union: dimension mismatch";
  { dim = a.dim; maximal = keep_maximal (a.maximal @ b.maximal) }

let subset a b =
  List.for_all (fun v -> List.exists (Omega_vec.leq v) b.maximal) a.maximal

let equal a b = subset a b && subset b a

let pp ?names fmt d =
  match d.maximal with
  | [] -> Format.pp_print_string fmt "∅"
  | vs ->
    Format.fprintf fmt "@[<v>down{";
    List.iteri
      (fun i v ->
        if i > 0 then Format.fprintf fmt ",@ ";
        Omega_vec.pp ?names fmt v)
      vs;
    Format.fprintf fmt "}@]"
