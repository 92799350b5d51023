type t = {
  dim : int;
  minimal : Mset.t list; (* pairwise incomparable *)
}

let empty dim = { dim; minimal = [] }
let dim u = u.dim

let minimize elements =
  let keep m =
    not (List.exists (fun m' -> (not (Mset.equal m m')) && Mset.leq m' m) elements)
  in
  List.filter keep elements |> List.sort_uniq Mset.compare

let of_elements dim elements =
  List.iter
    (fun m ->
      if Mset.dim m <> dim then invalid_arg "Upset.of_elements: dimension")
    elements;
  { dim; minimal = minimize elements }

let minimal_elements u = u.minimal
let mem c u = List.exists (fun m -> Mset.leq m c) u.minimal

let add m u =
  if mem m u then None
  else
    (* [m] is below no survivor (they'd have been filtered) and above
       none (mem returned false), so the filtered list extended with [m]
       is already an antichain: sorting alone restores canonical form,
       no quadratic re-minimization needed. *)
    let minimal =
      List.sort_uniq Mset.compare
        (m :: List.filter (fun m' -> not (Mset.leq m m')) u.minimal)
    in
    Some { u with minimal }

let subset a b = List.for_all (fun m -> mem m b) a.minimal
let equal a b = subset a b && subset b a
let size u = List.length u.minimal

let max_norm u =
  List.fold_left
    (fun acc m -> Stdlib.max acc (Intvec.norm_inf (Mset.to_intvec m)))
    0 u.minimal

let m_children = Obs.Metrics.counter "upset.complement_children"
let m_pruned = Obs.Metrics.counter "upset.complement_pruned"

(* Split-only complement of up(minimal). [acc] is the antichain of
   maximal ω-vectors (ω = max_int) of the complement of the up-closure
   of the minimal elements cut out so far. Cutting out up(m) keeps every
   vector not above m and replaces each vector v above m by its children
   v[i := m(i) - 1], i in m's support. Since [acc] is an antichain:
   - no kept w lies below a child of v (w would lie below v), so kept
     vectors are never dropped;
   - children lowering different coordinates are incomparable (the one
     lowering i exceeds the one lowering j at j), and two children
     lowering the same i are never equal (their parents would be
     comparable).
   So a child lowering i is dropped only strictly below another child
   lowering i, or below a kept w; such a w is >= m everywhere but at i,
   so w(i) = m(i) - 1. *)
let complement u =
  let d = u.dim in
  let leq a b =
    let rec go i = i >= d || (a.(i) <= b.(i) && go (i + 1)) in
    go 0
  in
  let children = ref 0 and pruned = ref 0 in
  let cut acc m =
    let m = Array.init d (Mset.get m) in
    match List.partition (leq m) acc with
    | [], _ -> acc
    | split, kept ->
      let next = ref kept in
      for i = 0 to d - 1 do
        if m.(i) > 0 then begin
          let x = m.(i) - 1 in
          let kids =
            List.map
              (fun v ->
                let c = Array.copy v in
                c.(i) <- x;
                c)
              split
          in
          let blockers = List.filter (fun w -> w.(i) = x) kept in
          children := !children + List.length kids;
          List.iter
            (fun c ->
              if
                List.exists (leq c) blockers
                || List.exists (fun c' -> c' != c && leq c c') kids
              then incr pruned
              else next := c :: !next)
            kids
        end
      done;
      !next
  in
  let result = List.fold_left cut [ Array.make d max_int ] u.minimal in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add m_children !children;
    Obs.Metrics.add m_pruned !pruned
  end;
  List.map
    (Array.map (fun x -> if x = max_int then Omega_vec.Omega else Omega_vec.Fin x))
    result
  |> List.sort Stdlib.compare
