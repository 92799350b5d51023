(* The body of [Upset.complement] that the split-only antichain
   complement replaced, kept verbatim (record fields read through the
   public accessors) as the differential oracle: it meets every vector
   of the antichain with every choice of coordinate and cuts the
   product down by a quadratic dominance scan, so it is slow but easy
   to trust. Both return the maximal ω-vectors sorted by
   [Stdlib.compare], so tests compare the lists for equality. *)

(* Complement of up(minimal): intersection over the minimal elements m of
   the union over coordinates i with m(i) > 0 of the ω-vector putting
   m(i)-1 at i and ω elsewhere. Distribute the intersection over the
   unions, pruning dominated candidates as we go. *)
let complement u =
  let dim = Upset.dim u and minimal = Upset.minimal_elements u in
  let keep_maximal vs =
    List.filter
      (fun v ->
        not
          (List.exists
             (fun v' -> (not (Omega_vec.equal v v')) && Omega_vec.leq v v')
             vs))
      vs
    |> List.sort_uniq Stdlib.compare
  in
  let single m =
    List.filter_map
      (fun i ->
        let c = Mset.get m i in
        if c > 0 then begin
          let v = Omega_vec.all_omega dim in
          let v = Array.copy v in
          v.(i) <- Omega_vec.Fin (c - 1);
          Some v
        end
        else None)
      (List.init dim Fun.id)
  in
  let start = [ Omega_vec.all_omega dim ] in
  List.fold_left
    (fun acc m ->
      let choices = single m in
      List.concat_map (fun v -> List.map (Omega_vec.meet v) choices) acc
      |> keep_maximal)
    start minimal
